/**
 * @file
 * Build-level smoke tests: run the lba_run and lba_trace tools
 * end-to-end on a tiny workload, once per lifeguard, and assert they
 * exit 0 — so tool-level regressions (argument parsing, report
 * printing, trace I/O) are caught by tier-1 even when the library
 * suites still pass.
 *
 * Tool binary paths are injected by CMake via LBA_RUN_PATH /
 * LBA_TRACE_PATH; without them (e.g. a non-CMake build) the suite
 * skips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

#ifndef LBA_RUN_PATH
#define LBA_RUN_PATH ""
#endif
#ifndef LBA_TRACE_PATH
#define LBA_TRACE_PATH ""
#endif

/** Runs @p command, returns its exit status (-1 on spawn failure). */
int
runCommand(const std::string& command)
{
    int status = std::system(command.c_str());
#if defined(_WIN32)
    return status;
#else
    if (status == -1 || !WIFEXITED(status)) {
        return -1;
    }
    return WEXITSTATUS(status);
#endif
}

class SmokeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (std::string(LBA_RUN_PATH).empty()) {
            GTEST_SKIP() << "tool paths not configured";
        }
    }
};

TEST_F(SmokeTest, LbaRunEachLifeguardExitsZero)
{
    for (const char* lifeguard : {"addrcheck", "taintcheck", "lockset"}) {
        std::string cmd = std::string(LBA_RUN_PATH) + " gzip " + lifeguard +
                          " --instrs 20000 >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 0) << "lifeguard: " << lifeguard;
    }
}

TEST_F(SmokeTest, LbaRunBothPlatformsWithInjectedBug)
{
    std::string cmd = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --instrs 20000 --platform both"
                      " --bugs uaf >/dev/null 2>&1";
    EXPECT_EQ(runCommand(cmd), 0);
}

TEST_F(SmokeTest, LbaRunRejectsUnknownBenchmark)
{
    std::string cmd = std::string(LBA_RUN_PATH) +
                      " no-such-benchmark addrcheck >/dev/null 2>&1";
    EXPECT_NE(runCommand(cmd), 0);
}

TEST_F(SmokeTest, LbaRunContainmentReportsAndExitsZero)
{
    std::string json = ::testing::TempDir() + "smoke_containment.json";
    for (const char* policy :
         {"patch", "skip", "quarantine", "abort"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 20000 --platform lba"
                          " --bugs uaf --containment=" +
                          policy + " --json " + json +
                          " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 0) << "policy: " << policy;
    }
    // The JSON report carries the ContainmentStats block.
    std::FILE* file = std::fopen(json.c_str(), "r");
    ASSERT_NE(file, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), file));
    std::fclose(file);
    EXPECT_NE(text.find("\"containment\""), std::string::npos);
    EXPECT_NE(text.find("\"rewinds\""), std::string::npos);
    std::remove(json.c_str());

    // Multi-tenant pool with per-tenant containment.
    std::string pool_cmd = std::string(LBA_RUN_PATH) +
                           " gzip,mcf addrcheck --instrs 15000"
                           " --tenants 2 --lanes 2 --bugs uaf"
                           " --containment patch >/dev/null 2>&1";
    EXPECT_EQ(runCommand(pool_cmd), 0);
}

TEST_F(SmokeTest, LbaRunTrailingValueFlagIsUsageErrorNotCrash)
{
    // A value flag as the last argument must print usage and exit 2 —
    // never read argv[argc].
    for (const char* flag :
         {"--instrs", "--platform", "--shards", "--tenants", "--lanes",
          "--sched", "--transport-bw", "--bugs", "--containment",
          "--checkpoint-interval", "--json"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck " + flag + " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 2) << "flag: " << flag;
    }
    // Unknown policy is rejected, not silently defaulted.
    std::string bad = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --containment=bogus"
                      " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(bad), 2);
    // --checkpoint-interval without --containment is an error, not a
    // silently uncontained run.
    std::string orphan = std::string(LBA_RUN_PATH) +
                         " gzip addrcheck --checkpoint-interval 500"
                         " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(orphan), 2);
    // Order-independent: interval before the policy flag still works.
    std::string ordered = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 15000"
                          " --checkpoint-interval 500"
                          " --containment patch --platform lba"
                          " >/dev/null 2>&1";
    EXPECT_EQ(runCommand(ordered), 0);
    // Containment on a DBI-only run would be silently ignored: reject.
    std::string dbi = std::string(LBA_RUN_PATH) +
                      " gzip addrcheck --platform dbi"
                      " --containment patch >/dev/null 2>&1";
    EXPECT_EQ(runCommand(dbi), 2);
    // Flag combinations that would silently run something other than
    // what was asked: an unknown platform, a DBI or sharded pool, a
    // sharded DBI run.
    for (const char* args :
         {" --platform lbx", " --platform=lbx",
          " --tenants 2 --platform dbi", " --tenants 2 --shards 2",
          " --platform dbi --shards 2"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 15000" + args +
                          " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 2) << "args: " << args;
    }
}

/**
 * Runs lba_run once per numeric flag with @p bad_value (indexed like
 * kNumericFlags), in both the `--flag value` and `--flag=value`
 * spellings, and expects a usage error (exit 2) every time.
 */
constexpr const char* kNumericFlags[] = {
    "--instrs", "--shards", "--tenants", "--lanes",
    "--checkpoint-interval", "--transport-bw"};

void
expectNumericFlagsRejected(const char* const (&bad_values)[6])
{
    for (std::size_t f = 0; f < 6; ++f) {
        const std::string flag = kNumericFlags[f];
        const std::string value = bad_values[f];
        for (const std::string& spelling :
             {flag + " '" + value + "'", flag + "='" + value + "'"}) {
            std::string cmd = std::string(LBA_RUN_PATH) +
                              " gzip addrcheck --instrs 15000"
                              " --platform lba " +
                              spelling + " >/dev/null 2>&1";
            EXPECT_EQ(runCommand(cmd), 2) << "spelling: " << spelling;
        }
    }
}

TEST_F(SmokeTest, LbaRunNumericFlagRejectsEmptyValue)
{
    expectNumericFlagsRejected({"", "", "", "", "", ""});
}

TEST_F(SmokeTest, LbaRunNumericFlagRejectsTrailingGarbage)
{
    expectNumericFlagsRejected(
        {"15000x", "abc", "2 ", "4lanes", "500k", "1.5x"});
}

TEST_F(SmokeTest, LbaRunNumericFlagRejectsNegativeValue)
{
    expectNumericFlagsRejected({"-1", "-4", "-2", "-2", "-500", "-3"});
}

TEST_F(SmokeTest, LbaRunNumericFlagRejectsOutOfRangeValue)
{
    // One past each flag's type: 2^64 for the 64-bit counts, 2^32 + 1
    // (which used to wrap to 1) for the 32-bit ones, and a bandwidth
    // beyond double.
    expectNumericFlagsRejected(
        {"18446744073709551616", "4294967297", "4294967297",
         "4294967297", "18446744073709551616", "1e999"});
    // In-range values still run, in the `--flag=value` spelling too.
    std::string ok = std::string(LBA_RUN_PATH) +
                     " gzip addrcheck --instrs=15000 --platform=lba"
                     " --shards=2 --transport-bw=0.5 >/dev/null 2>&1";
    EXPECT_EQ(runCommand(ok), 0);
}

TEST_F(SmokeTest, LbaRunDispatchTierFlagValidation)
{
    // Unknown tier names are usage errors (exit 2), in both the
    // `--flag value` and `--flag=value` spellings — never a silent
    // fall-back to the default tier. `per-record` is no longer a tier:
    // serial batched dispatch consumes each record as it is logged.
    for (const char* spelling :
         {" --dispatch bogus", " --dispatch=bogus",
          " --dispatch per-record", " --dispatch=per-record"}) {
        std::string cmd = std::string(LBA_RUN_PATH) + " gzip addrcheck" +
                          spelling + " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 2) << "spelling: " << spelling;
    }
    // Every valid tier runs end-to-end, in both spellings.
    for (const char* spelling :
         {" --dispatch fused", " --dispatch=fused",
          " --dispatch batched", " --dispatch=batched"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --instrs 15000"
                          " --platform lba" +
                          spelling + " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 0) << "spelling: " << spelling;
    }
    // Both tiers compose with threaded host execution.
    for (const char* tier : {" --dispatch fused", " --dispatch batched"}) {
        std::string threaded = std::string(LBA_RUN_PATH) +
                               " gzip addrcheck --instrs 15000"
                               " --platform lba --execution threaded" +
                               tier + " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(threaded), 0) << "tier: " << tier;
    }
}

TEST_F(SmokeTest, LbaTraceMissingArgumentsAreUsageErrors)
{
    std::string base = std::string(LBA_TRACE_PATH);
    // Each subcommand with a missing trailing argument: usage, exit 2.
    EXPECT_EQ(runCommand(base + " gen gzip >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " info >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " dump >/dev/null 2>&1"), 2);
    EXPECT_EQ(runCommand(base + " >/dev/null 2>&1"), 2);
    // Numeric arguments are strict: empty, negative, garbage and
    // trailing-garbage values are usage errors, never a silent default
    // (or, for -1, a 2^64-instruction generation). Each is rejected
    // before any file is touched.
    std::string trace = ::testing::TempDir() + "smoke_numeric.lbat";
    for (const char* value : {"''", "-1", "abc", "12x", "' 5'"}) {
        EXPECT_EQ(runCommand(base + " gen gzip " + trace + " " + value +
                             " >/dev/null 2>&1"),
                  2)
            << "gen count: " << value;
        EXPECT_EQ(runCommand(base + " dump " + trace + " " + value +
                             " >/dev/null 2>&1"),
                  2)
            << "dump count: " << value;
    }
    EXPECT_EQ(runCommand(base + " dump " + trace + " zz >/dev/null 2>&1"),
              2);
    // There is one codec, so no subcommand lists codecs.
    EXPECT_EQ(runCommand(base + " codecs >/dev/null 2>&1"), 2);
}

TEST_F(SmokeTest, LbaRunRejectsZeroInstructions)
{
    // 0 used to fall through to the workload generator's own default
    // length: a usage error instead, in both spellings.
    for (const char* spelling : {" --instrs 0", " --instrs=0"}) {
        std::string cmd = std::string(LBA_RUN_PATH) +
                          " gzip addrcheck --platform lba" + spelling +
                          " >/dev/null 2>&1";
        EXPECT_EQ(runCommand(cmd), 2) << "spelling: " << spelling;
    }
}

TEST_F(SmokeTest, LbaTraceGenRejectsZeroCount)
{
    // 0 used to mean the default 250000 instructions: a usage error
    // now, rejected before the output file is created.
    std::string trace = ::testing::TempDir() + "smoke_zero.lbat";
    std::remove(trace.c_str());
    EXPECT_EQ(runCommand(std::string(LBA_TRACE_PATH) + " gen gzip " +
                         trace + " 0 >/dev/null 2>&1"),
              2);
    std::FILE* file = std::fopen(trace.c_str(), "rb");
    EXPECT_EQ(file, nullptr) << "gen 0 wrote " << trace;
    if (file) std::fclose(file);
}

TEST_F(SmokeTest, LbaTraceGenInfoDumpRoundTrip)
{
    std::string trace = ::testing::TempDir() + "smoke_test.lbat";
    std::string base = std::string(LBA_TRACE_PATH);
    EXPECT_EQ(runCommand(base + " gen gzip " + trace +
                         " 20000 >/dev/null 2>&1"),
              0);
    EXPECT_EQ(runCommand(base + " info " + trace + " >/dev/null 2>&1"), 0);
    EXPECT_EQ(runCommand(base + " dump " + trace + " 16 >/dev/null 2>&1"),
              0);
    std::remove(trace.c_str());
}

} // namespace
