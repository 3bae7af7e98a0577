// Tests for the fault-tolerant shard orchestrator: exit classification,
// the deterministic chaos schedule, crash-loop budget exhaustion on a
// virtual clock, and end-to-end supervision of real `saer sweep` shard
// subprocesses (stall kill/restart, SIGTERM drain + resume, chaos) whose
// final aggregates must byte-match a single uninterrupted process.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "net/orchestrator.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#endif

namespace saer {
namespace {

namespace fs = std::filesystem;
using net::ExitClass;
using net::OrchestrateOptions;
using net::OrchestrateResult;
using net::Orchestrator;
using net::ShardProcess;

TEST(OrchestratorPolicy, ClassifyExit) {
  EXPECT_EQ(net::classify_exit(0, 0), ExitClass::kSuccess);
  EXPECT_EQ(net::classify_exit(1, 0), ExitClass::kRetryable);
  EXPECT_EQ(net::classify_exit(7, 0), ExitClass::kRetryable);
  // Usage errors and the shell's cannot-exec codes never heal on retry.
  EXPECT_EQ(net::classify_exit(2, 0), ExitClass::kPermanent);
  EXPECT_EQ(net::classify_exit(126, 0), ExitClass::kPermanent);
  EXPECT_EQ(net::classify_exit(127, 0), ExitClass::kPermanent);
  // Any death by signal is retryable -- even "exit 0 plus signal", which
  // cannot happen, and a SIGKILL the supervisor itself sent.
  EXPECT_EQ(net::classify_exit(-1, 9), ExitClass::kRetryable);
  EXPECT_EQ(net::classify_exit(-1, 15), ExitClass::kRetryable);
}

TEST(OrchestratorPolicy, ChaosScheduleIsDeterministic) {
  const CounterRng rng(1234);
  std::uint32_t fires = 0;
  for (std::uint64_t tick = 0; tick < 1000; ++tick) {
    const bool a = net::chaos_fires(rng, 2, tick, 0.05);
    const bool b = net::chaos_fires(rng, 2, tick, 0.05);
    EXPECT_EQ(a, b);
    if (a) ++fires;
  }
  // ~Binomial(1000, 0.05); far tails only.
  EXPECT_GT(fires, 10u);
  EXPECT_LT(fires, 150u);
  EXPECT_FALSE(net::chaos_fires(rng, 0, 0, 0.0));
}

#if defined(__unix__) || defined(__APPLE__)

/// Collected event stream plus the virtual clock the schedule ran on.
struct VirtualRun {
  OrchestrateResult result;
  std::vector<OrchestrateEventRow> events;
};

/// Runs the orchestrator over `shards` on a virtual clock: sleeps advance
/// virtual time instead of wall time, so backoff schedules replay exactly
/// and the test finishes in real milliseconds.
VirtualRun run_virtual(std::vector<ShardProcess> shards, RetryPolicy retry) {
  auto vnow = std::make_shared<std::uint64_t>(0);
  OrchestrateOptions options;
  options.shards = std::move(shards);
  options.retry = retry;
  options.stall_timeout_s = 0.0;  // no heartbeat files in these tests
  options.poll_interval_ms = 10.0;
  options.drain_grace_s = 1.0;
  options.now_ms = [vnow] { return *vnow; };
  options.sleep_ms = [vnow](std::uint64_t ms) { *vnow += ms; };
  VirtualRun run;
  options.on_event = [&run](const OrchestrateEventRow& row) {
    run.events.push_back(row);
  };
  Orchestrator::clear_stop();
  run.result = Orchestrator(std::move(options)).run();
  return run;
}

ShardProcess shell_shard(const std::string& script) {
  ShardProcess shard;
  shard.argv = {"/bin/sh", "-c", script};
  return shard;
}

TEST(OrchestratorSupervision, CrashLoopExhaustsBudgetWithGrowingBackoff) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay_ms = 100;
  retry.max_delay_ms = 1000;
  retry.jitter = 0.0;  // exact doubling, assertable below
  const VirtualRun run = run_virtual({shell_shard("exit 7")}, retry);

  EXPECT_FALSE(run.result.all_succeeded);
  ASSERT_EQ(run.result.shards.size(), 1u);
  const net::ShardOutcome& s = run.result.shards[0];
  EXPECT_TRUE(s.gave_up);
  EXPECT_FALSE(s.permanent_failure);
  // The budget is consumed exactly: max_attempts spawns, max_attempts
  // failures, then give-up -- never an infinite restart loop.
  EXPECT_EQ(s.attempts, 3u);
  EXPECT_EQ(s.failures, 3u);
  EXPECT_EQ(s.last_exit_code, 7);
  // The report names the last exit status.
  EXPECT_NE(run.result.report().find("last exit code 7"), std::string::npos);
  EXPECT_NE(run.result.report().find("GAVE UP"), std::string::npos);

  // Restart gaps on the virtual clock grow by the doubling schedule:
  // failure k waits retry.delay_ms(0, k) (+ at most a few poll ticks).
  std::vector<std::uint64_t> exits;
  std::vector<std::uint64_t> restarts;
  std::uint32_t give_ups = 0;
  for (const OrchestrateEventRow& row : run.events) {
    if (row.event == "exit") exits.push_back(row.elapsed_ms);
    if (row.event == "restart") restarts.push_back(row.elapsed_ms);
    if (row.event == "give-up") ++give_ups;
  }
  ASSERT_EQ(exits.size(), 3u);
  ASSERT_EQ(restarts.size(), 2u);
  EXPECT_EQ(give_ups, 1u);
  for (std::size_t k = 0; k < restarts.size(); ++k) {
    const std::uint64_t want =
        retry.delay_ms(0, static_cast<std::uint32_t>(k + 1));
    const std::uint64_t gap = restarts[k] - exits[k];
    EXPECT_GE(gap, want) << "restart " << k;
    EXPECT_LE(gap, want + 50) << "restart " << k;
  }
}

TEST(OrchestratorSupervision, PermanentFailureIsNeverRetried) {
  RetryPolicy retry;
  retry.max_attempts = 5;
  const VirtualRun run = run_virtual({shell_shard("exit 2")}, retry);
  ASSERT_EQ(run.result.shards.size(), 1u);
  EXPECT_TRUE(run.result.shards[0].gave_up);
  EXPECT_TRUE(run.result.shards[0].permanent_failure);
  EXPECT_EQ(run.result.shards[0].attempts, 1u);
}

TEST(OrchestratorSupervision, UnlaunchableBinaryIsPermanent) {
  RetryPolicy retry;
  retry.max_attempts = 5;
  ShardProcess shard;
  shard.argv = {"/nonexistent/saer-binary", "sweep"};
  const VirtualRun run = run_virtual({shard}, retry);
  ASSERT_EQ(run.result.shards.size(), 1u);
  EXPECT_TRUE(run.result.shards[0].permanent_failure);
  EXPECT_EQ(run.result.shards[0].last_exit_code, 127);
  EXPECT_EQ(run.result.shards[0].attempts, 1u);
}

TEST(OrchestratorSupervision, OneGiveUpCancelsHealthySiblings) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_delay_ms = 10;
  retry.jitter = 0.0;
  // Shard 0 crash-loops; shard 1 would run for 60 s.  The give-up must
  // terminate the sleeper in bounded time instead of waiting it out.
  // (sleep is exec'd directly -- a `sh -c` wrapper can fork it, and the
  // orphaned grandchild would outlive the drain holding our stdout pipe.)
  ShardProcess sleeper;
  sleeper.argv = {"sleep", "60"};
  const VirtualRun run =
      run_virtual({shell_shard("exit 7"), sleeper}, retry);
  EXPECT_FALSE(run.result.all_succeeded);
  EXPECT_TRUE(run.result.shards[0].gave_up);
  EXPECT_FALSE(run.result.shards[1].succeeded);
}

// --- End-to-end: real `saer` shard subprocesses ---------------------------

CliArgs make_args(std::vector<std::string> args) { return CliArgs(args); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Sweep-grid flags shared by the orchestrated shards and the
/// single-process reference run.
std::vector<std::string> e2e_grid_flags() {
  return {"--topology", "ring", "--sizes", "256", "--cs", "2,4",
          "--reps",     "24",   "--quiet"};
}

/// Shard argv for `saer sweep --shard i/k` writing into `dir`.
ShardProcess e2e_shard(const fs::path& dir, unsigned i, unsigned k) {
  ShardProcess shard;
  shard.argv = {SAER_CLI_BIN, "sweep"};
  for (std::string& flag : e2e_grid_flags()) shard.argv.push_back(flag);
  const std::string stem = (dir / ("shard-" + std::to_string(i))).string();
  const std::vector<std::string> tail = {
      "--shard", std::to_string(i) + "/" + std::to_string(k),
      "--jsonl", stem + ".jsonl",
      "--checkpoint", stem + ".ckpt",
      "--checkpoint-interval", "1",
      "--jobs", "1"};
  shard.argv.insert(shard.argv.end(), tail.begin(), tail.end());
  shard.heartbeat_path = stem + ".ckpt";
  shard.log_path = stem + ".log";
  return shard;
}

/// Aggregate CSV of the single-process reference sweep (cached per grid by
/// the caller's path choice).
void write_reference_agg(const fs::path& csv) {
  std::vector<std::string> flags = e2e_grid_flags();
  flags.push_back("--agg-csv");
  flags.push_back(csv.string());
  ASSERT_EQ(cli::cmd_sweep(make_args(flags)), 0);
}

/// Folds the shard JSONL streams into an aggregate CSV via cmd_aggregate.
void write_shard_agg(const fs::path& dir, unsigned k, const fs::path& csv) {
  std::vector<std::string> flags;
  for (unsigned i = 0; i < k; ++i) {
    flags.push_back((dir / ("shard-" + std::to_string(i) + ".jsonl")).string());
  }
  flags.push_back("--csv");
  flags.push_back(csv.string());
  flags.push_back("--quiet");
  ASSERT_EQ(cli::cmd_aggregate(make_args(flags)), 0);
}

TEST(OrchestratorE2E, StallIsKilledRestartedAndByteIdentical) {
  const fs::path dir = fs::temp_directory_path() / "saer_orch_stall";
  fs::remove_all(dir);
  fs::create_directories(dir);

  OrchestrateOptions options;
  options.shards = {e2e_shard(dir, 0, 2), e2e_shard(dir, 1, 2)};
  options.retry.max_attempts = 5;
  options.retry.base_delay_ms = 20;
  options.retry.jitter = 0.0;
  options.stall_timeout_s = 1.0;
  options.poll_interval_ms = 25.0;
  // Wedge shard 0's first attempt right at spawn: SIGSTOP freezes it
  // before it writes a single checkpoint row, so the heartbeat never
  // advances and the supervisor must SIGKILL + restart it.
  options.on_event = [](const OrchestrateEventRow& row) {
    if (row.event == "spawn" && row.shard == 0) {
      ::kill(static_cast<pid_t>(row.pid), SIGSTOP);
    }
  };
  Orchestrator::clear_stop();
  const OrchestrateResult result = Orchestrator(std::move(options)).run();

  EXPECT_TRUE(result.all_succeeded) << result.report();
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_GE(result.shards[0].stalls, 1u);
  EXPECT_GE(result.shards[0].attempts, 2u);

  const fs::path got = dir / "agg.csv";
  const fs::path want = dir / "ref.csv";
  write_shard_agg(dir, 2, got);
  write_reference_agg(want);
  const std::string got_bytes = read_file(got);
  EXPECT_FALSE(got_bytes.empty());
  EXPECT_EQ(got_bytes, read_file(want));
  fs::remove_all(dir);
}

TEST(OrchestratorE2E, SigtermDrainsCleanlyAndResumes) {
  const fs::path dir = fs::temp_directory_path() / "saer_orch_drain";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto options_for_run = [&dir] {
    OrchestrateOptions options;
    ShardProcess a = e2e_shard(dir, 0, 2);
    ShardProcess b = e2e_shard(dir, 1, 2);
    // Slow the shards down so the stop signal lands mid-grid: generators
    // resample a fresh ring per replication, so more reps = more wall time.
    for (ShardProcess* s : {&a, &b}) {
      for (std::string& arg : s->argv) {
        if (arg == "256") arg = "8192";
      }
    }
    options.shards = {a, b};
    options.stall_timeout_s = 30.0;
    options.poll_interval_ms = 25.0;
    options.drain_grace_s = 30.0;
    return options;
  };

  Orchestrator::clear_stop();
  std::thread stopper([&dir] {
    // Stop once shard 0 has streamed its first row, not after a fixed
    // delay: a fast build can finish the whole grid before any fixed delay
    // runs out, and then there is nothing to drain.  Each shard still has
    // 23 of its 24 runs to go.  The 30 s cap only guards a shard that
    // never starts.
    const fs::path first_rows = dir / "shard-0.jsonl";
    for (int waited_ms = 0; waited_ms < 30000; waited_ms += 5) {
      std::error_code ec;
      if (fs::file_size(first_rows, ec) > 0 && !ec) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Orchestrator::request_stop(SIGTERM);
  });
  const OrchestrateResult first = Orchestrator(options_for_run()).run();
  stopper.join();

  // The stop landed mid-grid, so the drain must be clean: every shard
  // exited 0 and left a resumable checkpoint.
  EXPECT_TRUE(first.drained_clean) << first.report();
  for (unsigned i = 0; i < 2; ++i) {
    const CheckpointInfo info = read_checkpoint_info(
        (dir / ("shard-" + std::to_string(i) + ".ckpt")).string());
    EXPECT_TRUE(info.header_ok) << i;
  }

  // Rerunning the identical supervisor resumes from the checkpoints and
  // completes; the spliced streams byte-match the uninterrupted reference.
  Orchestrator::clear_stop();
  const OrchestrateResult second = Orchestrator(options_for_run()).run();
  EXPECT_TRUE(second.all_succeeded) << second.report();

  const fs::path got = dir / "agg.csv";
  write_shard_agg(dir, 2, got);
  std::vector<std::string> ref_flags = e2e_grid_flags();
  for (std::string& arg : ref_flags) {
    if (arg == "256") arg = "8192";
  }
  ref_flags.push_back("--agg-csv");
  const fs::path want = dir / "ref.csv";
  ref_flags.push_back(want.string());
  ASSERT_EQ(cli::cmd_sweep(make_args(ref_flags)), 0);
  const std::string got_bytes = read_file(got);
  EXPECT_FALSE(got_bytes.empty());
  EXPECT_EQ(got_bytes, read_file(want));
  fs::remove_all(dir);
}

TEST(OrchestratorE2E, CliChaosRunIsByteIdenticalToSingleProcess) {
  const fs::path dir = fs::temp_directory_path() / "saer_orch_chaos";
  fs::remove_all(dir);

  std::vector<std::string> flags = e2e_grid_flags();
  const std::vector<std::string> extra = {
      "--dir", dir.string(), "--shards", "3", "--saer-bin", SAER_CLI_BIN,
      "--chaos", "10", "--chaos-seed", "7", "--poll-interval-ms", "20",
      "--backoff-ms", "10", "--agg-csv", (fs::temp_directory_path() /
                                          "saer_orch_chaos_agg.csv").string()};
  flags.insert(flags.end(), extra.begin(), extra.end());
  ASSERT_EQ(cli::cmd_orchestrate(make_args(flags)), 0);

  const fs::path want = dir / "ref.csv";
  write_reference_agg(want);
  const fs::path got = fs::temp_directory_path() / "saer_orch_chaos_agg.csv";
  const std::string got_bytes = read_file(got);
  EXPECT_FALSE(got_bytes.empty());
  EXPECT_EQ(got_bytes, read_file(want));

  // The event log is a lint-clean JSONL stream: every line must parse
  // through the strict key-order parser.
  std::ifstream events(dir / "events.jsonl");
  std::string line;
  std::size_t rows = 0;
  while (std::getline(events, line)) {
    EXPECT_NO_THROW(parse_orchestrate_event_row(line)) << line;
    ++rows;
  }
  EXPECT_GE(rows, 6u);  // >= spawn+exit+done per shard
  fs::remove(got);
  fs::remove_all(dir);
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace saer
