// Differential and chaos tests for distributed campaign execution: a
// multi-worker campaign — with workers crashing, hanging, or retrying, or the
// coordinator restarting from its manifest — must serialize to exactly the
// bytes of a single-host supervised run (src/runner/coordinator.h documents
// why this holds).
//
// Workers run RunWorker in forked processes here (tests/socket_campaign.h;
// soft kills: the worker abandons its lease and its connection, which the
// coordinator sees as EOF). Real SIGKILL chaos — including killing the
// coordinator itself — lives in scripts/smoke_distributed.sh.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/netio.h"
#include "src/common/status.h"
#include "src/runner/coordinator.h"
#include "src/runner/job_codec.h"
#include "src/runner/manifest.h"
#include "src/runner/result_sink.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"
#include "src/runner/work_queue.h"
#include "src/runner/worker.h"
#include "tests/socket_campaign.h"

namespace memtis {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

SweepSpec SmallSweep(int seeds = 1) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 30'000;
  sweep.seeds = seeds;
  return sweep;
}

// The acceptance bytes: the aggregate JSON and CSV a campaign's outcomes
// serialize to. Byte equality here is what "byte-identical merge" means.
std::string Bytes(const SweepSpec& sweep, const std::vector<JobSpec>& jobs,
                  const std::vector<CellOutcome>& outcomes) {
  SinkOptions opts;
  opts.indent = 0;
  return SweepToJson(sweep, jobs, outcomes, opts) + "\n" +
         SweepToCsv(jobs, outcomes);
}

std::vector<CellOutcome> LocalReference(const std::vector<JobSpec>& jobs,
                                        int max_attempts = 1,
                                        bool keep_going = false) {
  CampaignOptions options;
  options.max_attempts = max_attempts;
  options.backoff_base_ms = 0;
  options.keep_going = keep_going;
  return RunJobsResilient(jobs, options, 2);
}

std::vector<WorkerOptions> PlainWorkers(int n) {
  std::vector<WorkerOptions> workers(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers[static_cast<size_t>(i)].name = "w" + std::to_string(i);
  }
  return workers;
}

// ---------------------------------------------------------------------------
// Differential suite: in-process == supervised == 1-worker == 4-worker.

TEST(Distributed, SocketCampaignMatchesInProcessAndSupervisedBytes) {
  const SweepSpec sweep = SmallSweep();
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 2u);

  // Three executions of the same cells: pure in-process, locally supervised,
  // and a 1-worker campaign.
  std::vector<CellOutcome> in_process(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    in_process[i].ok = true;
    in_process[i].ran = true;
    in_process[i].attempts = 1;
    in_process[i].result = RunJob(jobs[i]);
  }
  const std::vector<CellOutcome> supervised = LocalReference(jobs);
  const SocketCampaignRun campaign =
      RunSocketCampaign(jobs, CampaignOptions{}, PlainWorkers(1));

  ASSERT_TRUE(campaign.error.empty()) << campaign.error;
  EXPECT_EQ(Bytes(sweep, jobs, supervised), Bytes(sweep, jobs, in_process));
  EXPECT_EQ(Bytes(sweep, jobs, campaign.outcomes),
            Bytes(sweep, jobs, in_process));
  EXPECT_EQ(campaign.stats.issues, jobs.size());
  EXPECT_EQ(campaign.stats.leases_lost, 0u);
}

TEST(Distributed, FourSocketWorkersAreByteIdenticalToOne) {
  const SweepSpec sweep = SmallSweep(/*seeds=*/2);
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 4u);
  const std::vector<CellOutcome> reference = LocalReference(jobs);

  const SocketCampaignRun campaign =
      RunSocketCampaign(jobs, CampaignOptions{}, PlainWorkers(4));
  ASSERT_TRUE(campaign.error.empty()) << campaign.error;
  EXPECT_EQ(Bytes(sweep, jobs, campaign.outcomes),
            Bytes(sweep, jobs, reference));
}

// ---------------------------------------------------------------------------
// Chaos: killed workers, hung workers, retries that hop across workers.

TEST(Distributed, KilledSocketWorkerLeasesAreReissuedByteIdentically) {
  const SweepSpec sweep = SmallSweep(/*seeds=*/2);
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  const std::vector<CellOutcome> reference = LocalReference(jobs);

  // Worker 0 dies while holding its very first lease; three healthy workers
  // absorb the campaign. Then the same schedule with a single healthy worker.
  for (const int healthy : {3, 1}) {
    std::vector<WorkerOptions> workers = PlainWorkers(healthy + 1);
    workers[0].kill_after_cells = 0;  // soft kill: quit holding the lease
    const SocketCampaignRun campaign = RunSocketCampaign(
        jobs, CampaignOptions{}, workers, /*sequential_workers=*/healthy == 1);
    ASSERT_TRUE(campaign.error.empty()) << campaign.error;
    EXPECT_GE(campaign.stats.leases_lost, 1u) << "healthy=" << healthy;
    EXPECT_GT(campaign.stats.issues, jobs.size()) << "healthy=" << healthy;
    EXPECT_EQ(Bytes(sweep, jobs, campaign.outcomes),
              Bytes(sweep, jobs, reference))
        << "healthy=" << healthy;
  }
}

TEST(Distributed, HungWorkerLeaseExpiresWithoutChangingBytes) {
  const SweepSpec sweep = SmallSweep(/*seeds=*/2);
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  const std::vector<CellOutcome> reference = LocalReference(jobs);

  CampaignOptions options;
  options.lease_timeout_ms = 150;
  std::vector<WorkerOptions> workers = PlainWorkers(2);
  workers[0].hang_first_claim_ms = 600;  // sits on the lease, never renews
  const SocketCampaignRun campaign = RunSocketCampaign(jobs, options, workers);
  ASSERT_TRUE(campaign.error.empty()) << campaign.error;
  EXPECT_GE(campaign.stats.leases_lost, 1u);
  EXPECT_EQ(Bytes(sweep, jobs, campaign.outcomes),
            Bytes(sweep, jobs, reference));
}

// The retry-accounting gap: a cell that crashes on worker A and succeeds on
// worker B must report the same global attempt count (2) and the same bytes
// as a single-host retry.
TEST(Distributed, RetryAcrossWorkersKeepsGlobalAttemptCountAndBytes) {
  const SweepSpec sweep = SmallSweep();
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  ASSERT_EQ(jobs.size(), 2u);
  ScopedEnv crash("MEMTIS_CRASH_CELL", JobFingerprint(jobs[0]) + ":1");

  const std::vector<CellOutcome> reference =
      LocalReference(jobs, /*max_attempts=*/2);
  ASSERT_TRUE(reference[0].ok);
  ASSERT_EQ(reference[0].attempts, 2);

  CampaignOptions options;
  options.max_attempts = 2;
  // Two workers racing: whichever reports the attempt-0 crash, the attempt-1
  // retry may land on either worker — both must produce identical bytes.
  const SocketCampaignRun campaign =
      RunSocketCampaign(jobs, options, PlainWorkers(2));
  ASSERT_TRUE(campaign.error.empty()) << campaign.error;
  EXPECT_GE(campaign.stats.retries, 1u);
  ASSERT_TRUE(campaign.outcomes[0].ok) << campaign.outcomes[0].failure.message;
  EXPECT_EQ(campaign.outcomes[0].attempts, 2);
  EXPECT_EQ(Bytes(sweep, jobs, campaign.outcomes),
            Bytes(sweep, jobs, reference));
}

TEST(Distributed, ExhaustedReissueBudgetDecidesLeaseExpired) {
  const SweepSpec sweep = SmallSweep();
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);

  CampaignOptions options;
  options.max_reissues = 1;
  options.keep_going = true;
  // Two sequential lease abandonments on cell 0 exhaust the budget; a healthy
  // worker then finishes the rest of the campaign.
  std::vector<WorkerOptions> workers = PlainWorkers(3);
  workers[0].kill_after_cells = 0;
  workers[1].kill_after_cells = 0;
  const SocketCampaignRun campaign = RunSocketCampaign(jobs, options, workers,
                                                 /*sequential_workers=*/true);
  ASSERT_TRUE(campaign.error.empty()) << campaign.error;
  EXPECT_EQ(campaign.stats.leases_lost, 2u);

  const CellOutcome& dead = campaign.outcomes[0];
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.failure.kind, FailureKind::kLeaseExpired);
  EXPECT_NE(dead.failure.reproducer_cmdline.find("--benchmarks=btree"),
            std::string::npos)
      << dead.failure.reproducer_cmdline;
  EXPECT_EQ(FailureKindName(FailureKind::kLeaseExpired),
            std::string("lease-expired"));
  EXPECT_TRUE(IsRecoverable(FailureKind::kLeaseExpired));
  // The healthy worker still decided every other cell.
  EXPECT_TRUE(campaign.outcomes[1].ok);
}

// ---------------------------------------------------------------------------
// Coordinator death and resume.

TEST(Distributed, SocketResumeFromManifestSkipsDecidedCells) {
  const SweepSpec sweep = SmallSweep(/*seeds=*/2);
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);
  const std::vector<CellOutcome> reference = LocalReference(jobs);
  const std::string manifest =
      ::testing::TempDir() + "dist_resume_manifest.jsonl";
  std::remove(manifest.c_str());

  CampaignOptions options;
  options.manifest_path = manifest;
  const SocketCampaignRun first =
      RunSocketCampaign(jobs, options, PlainWorkers(2));
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_EQ(Bytes(sweep, jobs, first.outcomes), Bytes(sweep, jobs, reference));

  // "Coordinator died after finishing": restart with the manifest preloaded.
  // Every cell reloads; no worker is needed, no lease is issued, and the
  // merged bytes do not change.
  std::map<std::string, ManifestEntry> preloaded;
  ASSERT_TRUE(LoadManifest(manifest, &preloaded));
  CampaignStats stats;
  std::string error;
  const std::vector<CellOutcome> resumed = ServeSocketCampaign(
      jobs, options, NetAddress{}, nullptr, preloaded, nullptr, &stats, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(stats.issues, 0u);
  EXPECT_EQ(Bytes(sweep, jobs, resumed), Bytes(sweep, jobs, reference));

  // "Coordinator SIGKILLed mid-campaign": only the first half of the manifest
  // survived, plus a torn final line from the write the kill interrupted.
  // The restarted coordinator, served by fresh workers, re-issues exactly the
  // missing cells and appends to the torn manifest, still reaching the
  // reference bytes.
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_EQ(lines.size(), jobs.size());
  const size_t kept = lines.size() / 2;
  const std::string torn_manifest =
      ::testing::TempDir() + "dist_resume_torn_manifest.jsonl";
  {
    std::ofstream out(torn_manifest, std::ios::trunc);
    for (size_t i = 0; i < kept; ++i) {
      out << lines[i] << "\n";
    }
    out << lines[kept].substr(0, lines[kept].size() / 2);  // no newline
  }
  std::map<std::string, ManifestEntry> survived;
  ManifestLoadStats load_stats;
  ASSERT_TRUE(LoadManifest(torn_manifest, &survived, &load_stats));
  EXPECT_EQ(survived.size(), kept);
  EXPECT_EQ(load_stats.lines_skipped, 1u);

  CampaignOptions restart_options;
  restart_options.manifest_path = torn_manifest;
  const SocketCampaignRun restarted =
      RunSocketCampaign(jobs, restart_options, PlainWorkers(2),
                        /*sequential_workers=*/false, survived);
  ASSERT_TRUE(restarted.error.empty()) << restarted.error;
  EXPECT_LT(restarted.stats.issues, jobs.size());
  EXPECT_EQ(restarted.stats.issues, jobs.size() - kept);
  EXPECT_EQ(Bytes(sweep, jobs, restarted.outcomes),
            Bytes(sweep, jobs, reference));
}

// ---------------------------------------------------------------------------
// Campaign state machine unit tests (no workers, no sockets).

TEST(Campaign, DuplicateAndStaleResultsAreIgnored) {
  const std::vector<JobSpec> jobs = ExpandJobs(SmallSweep());
  CampaignOptions options;
  options.keep_going = true;
  Campaign campaign(jobs, options, {}, nullptr, nullptr);

  auto item = campaign.NextIssue(/*now_ms=*/1000);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->index, 0u);
  EXPECT_EQ(item->attempt, 0);
  EXPECT_EQ(item->issue, 0u);

  SupervisedOutcome ok;
  ok.ok = true;
  ok.attempts = 1;
  EXPECT_TRUE(campaign.OnOutcome(0, 0, ok, 1000));
  EXPECT_FALSE(campaign.OnOutcome(0, 0, ok, 1000));  // duplicate: decided
  EXPECT_FALSE(campaign.OnOutcome(0, 5, ok, 1000));  // stale attempt
  EXPECT_FALSE(campaign.OnOutcome(99, 0, ok, 1000));  // out of range
  EXPECT_EQ(campaign.stats().stale_results, 3u);

  // A lease loss for a superseded issue id is a no-op.
  auto second = campaign.NextIssue(1000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->index, 1u);
  campaign.OnLeaseLost(1, /*issue=*/7);  // wrong issue: ignored
  EXPECT_EQ(campaign.stats().leases_lost, 0u);

  // Renewing the live tuple succeeds; once revoked it fails, and the cell
  // re-issues under the next issue id.
  EXPECT_TRUE(campaign.Renew(1, 0, 0, 2000));
  campaign.OnLeaseLost(1, 0);
  EXPECT_FALSE(campaign.Renew(1, 0, 0, 3000));
  auto reissued = campaign.NextIssue(3000);
  ASSERT_TRUE(reissued.has_value());
  EXPECT_EQ(reissued->index, 1u);
  EXPECT_EQ(reissued->issue, 1u);
}

TEST(Campaign, LeaseExpiryReissuesSameAttemptFreshIssue) {
  const std::vector<JobSpec> jobs = ExpandJobs(SmallSweep());
  Campaign campaign(jobs, CampaignOptions{}, {}, nullptr, nullptr);

  auto item = campaign.NextIssue(1000);
  ASSERT_TRUE(item.has_value());
  // Deadline passes with no renewal: same attempt, new issue id.
  campaign.ExpireStale(1000 + 10'001);
  EXPECT_EQ(campaign.stats().leases_lost, 1u);
  auto reissued = campaign.NextIssue(20'000);
  ASSERT_TRUE(reissued.has_value());
  EXPECT_EQ(reissued->index, item->index);
  EXPECT_EQ(reissued->attempt, item->attempt);  // same seed derivation
  EXPECT_EQ(reissued->issue, item->issue + 1);
  // Whereas a reported crash advances the attempt (seed folds).
  SupervisedOutcome crash;
  crash.ok = false;
  crash.attempts = 1;
  crash.failure.kind = FailureKind::kCrash;
  Campaign retrying(jobs, [] {
    CampaignOptions o;
    o.max_attempts = 2;
    o.backoff_base_ms = 0;
    return o;
  }(), {}, nullptr, nullptr);
  auto first = retrying.NextIssue(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(retrying.OnOutcome(first->index, first->attempt, crash, 0));
  auto retry = retrying.NextIssue(0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->index, first->index);
  EXPECT_EQ(retry->attempt, first->attempt + 1);
}

// Retries and backoff live only in Campaign: a recoverable failure re-opens
// the cell at attempt + 1, but not before base << (attempt - 1) ms have
// passed — for local sweeps and socket campaigns alike.
TEST(Campaign, RetryWaitsForBackoffBeforeReissue) {
  const std::vector<JobSpec> jobs = {ExpandJobs(SmallSweep())[0]};
  CampaignOptions options;
  options.max_attempts = 3;
  options.backoff_base_ms = 100;
  Campaign campaign(jobs, options, {}, nullptr, nullptr);

  SupervisedOutcome crash;
  crash.attempts = 1;
  crash.failure.kind = FailureKind::kCrash;
  auto first = campaign.NextIssue(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(campaign.OnOutcome(0, 0, crash, /*now_ms=*/0));
  EXPECT_FALSE(campaign.NextIssue(99).has_value());
  EXPECT_FALSE(campaign.Finished());
  auto retry = campaign.NextIssue(100);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->attempt, 1);

  // The wait doubles per attempt.
  crash.attempts = 2;
  EXPECT_TRUE(campaign.OnOutcome(0, 1, crash, /*now_ms=*/1000));
  EXPECT_FALSE(campaign.NextIssue(1199).has_value());
  auto second = campaign.NextIssue(1200);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->attempt, 2);
}

// The protocol codecs the two ends share must round-trip losslessly —
// including through a FrameDecoder fed one byte at a time.
TEST(Distributed, ProtocolRoundTripsThroughFrameDecoder) {
  const std::vector<JobSpec> jobs = ExpandJobs(SmallSweep());
  WorkItem item;
  item.index = 1;
  item.attempt = 3;
  item.issue = 7;
  item.job_timeout_ms = 1234;
  item.fingerprint = JobFingerprint(jobs[1]);
  item.spec = jobs[1];

  const std::string frame = EncodeFrame(EncodeCellReply(item));
  FrameDecoder decoder;
  for (const char c : frame) {
    decoder.Feed(&c, 1);
  }
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  CoordinatorReply reply;
  std::string error;
  ASSERT_TRUE(ParseCoordinatorReply(payload, &reply, &error)) << error;
  ASSERT_EQ(reply.kind, CoordinatorReply::Kind::kCell);
  EXPECT_EQ(reply.item.index, item.index);
  EXPECT_EQ(reply.item.attempt, item.attempt);
  EXPECT_EQ(reply.item.issue, item.issue);
  EXPECT_EQ(reply.item.job_timeout_ms, item.job_timeout_ms);
  EXPECT_EQ(reply.item.fingerprint, item.fingerprint);
  // The shipped spec hashes back to the advertised fingerprint — the check
  // every worker applies before running a cell.
  EXPECT_EQ(JobFingerprint(reply.item.spec), item.fingerprint);

  SupervisedOutcome outcome;
  outcome.ok = false;
  outcome.attempts = 4;
  outcome.failure.kind = FailureKind::kTimeout;
  outcome.failure.message = "deadline";
  outcome.failure.reproducer_cmdline = ReproducerCmdline(jobs[1], 3);
  WorkerRequest req;
  ASSERT_TRUE(ParseWorkerRequest(EncodeResultRequest("w9", item, outcome),
                                 &req, &error))
      << error;
  ASSERT_EQ(req.kind, WorkerRequest::Kind::kResult);
  EXPECT_EQ(req.worker, "w9");
  EXPECT_EQ(req.index, item.index);
  EXPECT_EQ(req.attempt, item.attempt);
  EXPECT_EQ(req.issue, item.issue);
  EXPECT_FALSE(req.outcome.ok);
  EXPECT_EQ(req.outcome.attempts, 4);
  EXPECT_EQ(req.outcome.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(req.outcome.failure.reproducer_cmdline,
            outcome.failure.reproducer_cmdline);
}

// `--serve` and `--worker` share one address form: "[HOST:]PORT" with a
// numeric IPv4 host defaulting to loopback.
TEST(Distributed, NetAddressAcceptsOnlyNumericHostPort) {
  NetAddress addr;
  std::string error;
  ASSERT_TRUE(ParseNetAddress("0", &addr, &error)) << error;
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 0);
  ASSERT_TRUE(ParseNetAddress("10.0.0.5:7070", &addr, &error)) << error;
  EXPECT_EQ(addr.host, "10.0.0.5");
  EXPECT_EQ(addr.port, 7070);
  ASSERT_TRUE(ParseNetAddress("0.0.0.0:65535", &addr, &error)) << error;
  EXPECT_EQ(addr.port, 65535);

  for (const char* bad : {"", "/tmp/q", "1.2.3.4:70000", "localhost:5", "-1",
                          "+5", "5 ", " 5", "1.2.3.4:", ":5", "5x",
                          "1.2.3:5", "::1:5"}) {
    error.clear();
    EXPECT_FALSE(ParseNetAddress(bad, &addr, &error)) << "'" << bad << "'";
    EXPECT_FALSE(error.empty()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace memtis
