// Tests for the sweep-service layer: the SpoolQueue work-queue protocol
// (claim/done lifecycle, idempotent init, manifest grid-mismatch rejection,
// dead-worker reclaim), spool-drained sweeps matching direct runs
// bit-for-bit, Scenario spec parsing, the ServeCore query tiers
// (LRU hot set / cache store / compute) with batch bit-identity, the LruMap
// eviction policy, and cache-store save-failure propagation.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/serve.h"
#include "engine/spool.h"
#include "models/zoo.h"
#include "sched/config.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
#include "util/lru.h"

namespace mbs::engine {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const char* name) {
  const std::string dir = testing::TempDir() + "mbs_svc_" + name + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Scenario mbs2_scenario(const std::string& net = "resnet50") {
  Scenario s;
  s.network = net;
  s.config = sched::ExecConfig::kMbs2;
  return s;
}

/// This host's name as SpoolQueue spells it in claim files.
std::string this_host() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0')
    return "localhost";
  return buf;
}

/// A claim file name as the spool protocol spells it:
/// u<unit>.g<generation>.<host>.<pid>.
std::string claim_name(int unit, long gen, const std::string& host, long pid) {
  // Appended piecewise: GCC 12 reports a false -Wrestrict on the inlined
  // `"literal" + std::string` form.
  std::string name = "u";
  name += std::to_string(unit) + ".g" + std::to_string(gen) + "." + host +
          "." + std::to_string(pid);
  return name;
}

/// Backdates a file's mtime by `ms` milliseconds (simulates a claim whose
/// owner stopped heartbeating that long ago).
void age_file(const std::string& path, long ms) {
  struct timespec now;
  ASSERT_EQ(clock_gettime(CLOCK_REALTIME, &now), 0);
  struct timespec stale = now;
  stale.tv_sec -= ms / 1000;
  stale.tv_nsec -= (ms % 1000) * 1000000L;
  if (stale.tv_nsec < 0) {
    stale.tv_nsec += 1000000000L;
    --stale.tv_sec;
  }
  const struct timespec times[2] = {stale, stale};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool step_equal(const sim::StepResult& a, const sim::StepResult& b) {
  return a.time_s == b.time_s && a.dram_bytes == b.dram_bytes &&
         a.buffer_bytes == b.buffer_bytes && a.total_macs == b.total_macs &&
         a.systolic_utilization == b.systolic_utilization &&
         a.compute_time_s == b.compute_time_s &&
         a.memory_time_s == b.memory_time_s;
}

// ---- SpoolQueue -------------------------------------------------------------

TEST(SpoolQueue, ClaimDoneLifecycleDrainsEveryUnitOnce) {
  const std::string dir = test_dir("spool_lifecycle");
  SpoolQueue q(dir, 0x1234u, 3);
  q.init();
  EXPECT_EQ(q.unit_count(), 3u);
  EXPECT_EQ(q.done_count(), 0u);
  EXPECT_FALSE(q.all_done());

  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const int u = q.claim();
    ASSERT_GE(u, 0);
    ASSERT_LT(u, 3);
    EXPECT_FALSE(seen[static_cast<std::size_t>(u)]) << "unit claimed twice";
    seen[static_cast<std::size_t>(u)] = true;
    q.mark_done(u);
  }
  EXPECT_EQ(q.claim(), -1);  // nothing left
  EXPECT_EQ(q.done_count(), 3u);
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, InitIsIdempotentAndSkipsFinishedUnits) {
  const std::string dir = test_dir("spool_idem");
  {
    SpoolQueue q(dir, 0xabcdu, 2);
    q.init();
    const int u = q.claim();
    ASSERT_GE(u, 0);
    q.mark_done(u);
  }
  // A late-joining worker re-inits the same queue: the done unit must not
  // reappear in todo, and the drain finishes with each unit done once.
  SpoolQueue late(dir, 0xabcdu, 2);
  late.init();
  EXPECT_EQ(late.done_count(), 1u);
  const int u = late.claim();
  ASSERT_GE(u, 0);
  late.mark_done(u);
  EXPECT_TRUE(late.all_done());
  EXPECT_EQ(late.claim(), -1);
  fs::remove_all(dir);
}

TEST(SpoolQueueDeathTest, ManifestGridMismatchAborts) {
  const std::string dir = test_dir("spool_mismatch");
  SpoolQueue q(dir, 0x1111u, 4);
  q.init();
  // Same directory, different grid: fingerprint and unit count disagree
  // with the manifest — the worker must refuse rather than mix grids.
  SpoolQueue other_fp(dir, 0x2222u, 4);
  EXPECT_DEATH(other_fp.init(), "different grid");
  SpoolQueue other_count(dir, 0x1111u, 5);
  EXPECT_DEATH(other_count.init(), "different grid");
  fs::remove_all(dir);
}

TEST(SpoolQueueDeathTest, SeqAxisChangesGridFingerprint) {
  // A seq override changes every member cache key, and with it the drain
  // fingerprint — so a worker draining a seq=256 grid pointed at the
  // default grid's queue directory refuses rather than mixing the grids.
  Scenario base = mbs2_scenario("vit_small");
  Scenario longer = base;
  longer.seq = 256;
  const std::uint64_t fp_base = util::fnv1a64(base.cache_key());
  const std::uint64_t fp_longer = util::fnv1a64(longer.cache_key());
  ASSERT_NE(fp_base, fp_longer);

  const std::string dir = test_dir("spool_seq");
  SpoolQueue q(dir, fp_base, 1);
  q.init();
  SpoolQueue other(dir, fp_longer, 1);
  EXPECT_DEATH(other.init(), "different grid");
  fs::remove_all(dir);
}

TEST(SpoolQueue, DeadOwnersClaimIsReclaimed) {
  const std::string dir = test_dir("spool_reclaim");
  SpoolQueue q(dir, 0x77u, 1);
  q.init();
  // Simulate a crashed same-host worker: move the unit into claimed/ under
  // a pid that cannot exist (far above any kernel pid limit), as if the
  // owner died mid-evaluation. Same host => the pid probe detects death
  // immediately, no lease wait.
  ASSERT_EQ(
      std::rename(
          (dir + "/todo/u0").c_str(),
          (dir + "/claimed/" + claim_name(0, 1, this_host(), 999999999))
              .c_str()),
      0);
  EXPECT_EQ(q.done_count(), 0u);
  const int u = q.claim();  // takeover-renames the dead claim to itself
  EXPECT_EQ(u, 0);
  q.mark_done(0);
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, CrossHostStaleClaimWaitsForLeaseExpiry) {
  const std::string dir = test_dir("spool_xhost");
  ::setenv("MBS_SPOOL_LEASE_MS", "120", 1);
  SpoolQueue q(dir, 0x79u, 1);
  q.init();
  // A claim from another machine: the pid is meaningless here (pid 1 is
  // alive on every Linux box — that must NOT make the claim look alive),
  // so only the mtime lease can decide.
  const std::string stale =
      dir + "/claimed/" + claim_name(0, 1, "builder-07.example.com", 1);
  ASSERT_EQ(std::rename((dir + "/todo/u0").c_str(), stale.c_str()), 0);
  // Fresh mtime: the remote owner could still be heartbeating.
  EXPECT_EQ(q.claim(), -1);
  // Backdate past the lease: now it is reclaimable.
  age_file(stale, 1000);
  EXPECT_EQ(q.claim(), 0);
  q.mark_done(0);
  EXPECT_TRUE(q.all_done());
  ::unsetenv("MBS_SPOOL_LEASE_MS");
  fs::remove_all(dir);
}

TEST(SpoolQueue, PoisonedUnitIsQuarantinedInFailed) {
  const std::string dir = test_dir("spool_poison");
  SpoolQueue q(dir, 0x7au, 2);
  q.init();
  // A unit whose claim generation already reached the poison limit
  // (default 3): three workers died holding it. It must move to failed/
  // rather than be handed to a fourth victim.
  ASSERT_EQ(
      std::rename(
          (dir + "/todo/u0").c_str(),
          (dir + "/claimed/" + claim_name(0, 3, this_host(), 999999999))
              .c_str()),
      0);
  const int u = q.claim();  // todo/ first: the healthy unit
  EXPECT_EQ(u, 1);
  q.mark_done(1);
  // The next claim finds todo/ empty and sweeps claimed/: the poisoned
  // unit moves to failed/ instead of being handed out.
  EXPECT_EQ(q.claim(), -1);
  EXPECT_TRUE(fs::exists(dir + "/failed/u0"));
  EXPECT_EQ(q.failed_count(), 1u);
  EXPECT_EQ(q.done_count(), 1u);
  // failed counts toward completion: the drain terminates instead of
  // spinning forever on a unit that kills every owner.
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, RefreshClaimAdvancesTheLease) {
  const std::string dir = test_dir("spool_lease");
  SpoolQueue q(dir, 0x7bu, 1);
  q.init();
  ASSERT_EQ(q.claim(), 0);
  // Find the claim file and backdate it as if the heartbeat had stalled.
  std::string claim;
  for (const auto& e : fs::directory_iterator(dir + "/claimed"))
    claim = e.path().string();
  ASSERT_FALSE(claim.empty());
  age_file(claim, 10000);
  struct stat before;
  ASSERT_EQ(::stat(claim.c_str(), &before), 0);
  EXPECT_TRUE(q.refresh_claim(0));
  struct stat after;
  ASSERT_EQ(::stat(claim.c_str(), &after), 0);
  EXPECT_GT(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  q.mark_done(0);
  fs::remove_all(dir);
}

TEST(SpoolQueue, DoneMarkerOutranksStaleClaim) {
  const std::string dir = test_dir("spool_doneclaim");
  SpoolQueue q(dir, 0x88u, 1);
  q.init();
  // A worker that crashed between writing the done marker and releasing
  // its claim leaves both behind. The unit must NOT be re-executed: the
  // done marker wins and the stale claim is swept away.
  const int u = q.claim();
  ASSERT_EQ(u, 0);
  q.mark_done(0);
  const std::string stale =
      dir + "/claimed/" + claim_name(0, 1, this_host(), 999999999);
  std::ofstream(stale) << "stale";
  EXPECT_EQ(q.claim(), -1);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, StrayUnitNamesNeitherHideNorCompleteUnits) {
  const std::string dir = test_dir("spool_stray");
  // Names whose index does not fit the queue: 2^32 and 2^32 + 1 once
  // wrapped to units 0 and 1, and u7 is past the 3-unit queue. A stray
  // name in done/ at init must not hide a real unit, and none may count
  // toward all_done().
  fs::create_directories(dir + "/done");
  for (const char* name :
       {"u4294967296", "u4294967297", "u7", "u01", "u2.tmp.123", "u"})
    std::ofstream(dir + "/done/" + name) << "done\n";
  SpoolQueue q(dir, 0x77u, 3);
  q.init();
  EXPECT_EQ(q.done_count(), 0u);
  EXPECT_FALSE(q.all_done());

  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const int u = q.claim();
    ASSERT_GE(u, 0) << "only " << i << " of 3 units were claimable";
    ASSERT_LT(u, 3);
    seen[static_cast<std::size_t>(u)] = true;
    q.mark_done(u);
  }
  EXPECT_EQ(q.claim(), -1);
  EXPECT_EQ(seen, std::vector<bool>(3, true));
  EXPECT_EQ(q.done_count(), 3u);
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolDrain, SingleWorkerSpoolSweepMatchesDirectRunBitForBit) {
  const std::string dir = test_dir("spool_e2e");

  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "resnet50"})
    for (const sched::ExecConfig cfg :
         {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2}) {
      Scenario s = mbs2_scenario(net);
      s.config = cfg;
      grid.push_back(s);
    }
  Scenario sys = mbs2_scenario("alexnet");
  sys.device = Device::kSystolic;
  grid.push_back(sys);

  Evaluator direct_eval;
  const auto direct = SweepRunner().run(grid, direct_eval);

  CacheStore store(dir + "/cache/evaluator.mbscache");
  Evaluator spool_eval(&store);
  SweepOptions opts;
  opts.spool_dir = dir + "/spool";
  const auto spooled = SweepRunner(opts).run(grid, spool_eval);

  ASSERT_EQ(spooled.size(), direct.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(step_equal(spooled[i].step, direct[i].step))
        << "scenario " << i;
    EXPECT_EQ(spooled[i].systolic.time_s, direct[i].systolic.time_s);
  }
  fs::remove_all(dir);
}

// ---- parse_scenario ---------------------------------------------------------

TEST(ParseScenario, RoundTripsEveryAxis) {
  Scenario s;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      "net=resnet50;cfg=MBS2;buf=8388608;mb=64;opt=1;dev=systolic;df=ws;"
      "spad=262144;stage=simulate",
      &s, &error))
      << error;
  EXPECT_EQ(s.network, "resnet50");
  EXPECT_EQ(s.config, sched::ExecConfig::kMbs2);
  EXPECT_EQ(s.params.buffer_bytes, 8388608);
  EXPECT_EQ(s.params.mini_batch, 64);
  EXPECT_TRUE(s.params.optimal_grouping);
  EXPECT_EQ(s.device, Device::kSystolic);
  EXPECT_EQ(s.systolic.dataflow, arch::Dataflow::kWeightStationary);
  EXPECT_EQ(s.stage, Stage::kSimulate);

  // Keys derive from the parsed fields, so two spellings of one scenario
  // (reordered keys, stray semicolons, whitespace) share cache keys.
  Scenario t;
  ASSERT_TRUE(parse_scenario(
      " stage=simulate; dev=systolic ;df=ws;spad=262144;; mb=64;opt=1;"
      "buf=8388608;cfg=MBS2;net=resnet50 ",
      &t, &error))
      << error;
  EXPECT_EQ(t.cache_key(), s.cache_key());
}

TEST(ParseScenario, RejectsMalformedSpecsWithReasons) {
  Scenario s;
  std::string error;
  EXPECT_FALSE(parse_scenario("", &s, &error));
  EXPECT_FALSE(parse_scenario("cfg=MBS2", &s, &error));  // net required
  EXPECT_NE(error.find("net"), std::string::npos);
  EXPECT_FALSE(parse_scenario("net=alexnet;cfg=MBS9", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;dev=tpu", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;buf=0", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;buf=8m", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;stage=warp", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;bogus=1", &s, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // The grouping search space is contiguous only: the retired var key
  // is an unknown key, not a silently ignored one.
  EXPECT_FALSE(parse_scenario("net=alexnet;var=noncontiguous", &s, &error));
  EXPECT_NE(error.find("unknown field 'var'"), std::string::npos) << error;
  // Integers that do not fit their field are rejected, never truncated
  // into another query (2^32 + 196 is not seq 196) or saturated.
  for (const char* spec :
       {"net=vit_small;seq=4294967492", "net=alexnet;mb=4294967328",
        "net=alexnet;dev=gpu;gmb=4294967360",
        "net=alexnet;buf=99999999999999999999",
        "net=alexnet;spad=99999999999999999999", "net=alexnet;mb=-1",
        "net=alexnet;gmb=0"}) {
    error.clear();
    EXPECT_FALSE(parse_scenario(spec, &s, &error)) << spec;
    EXPECT_NE(error.find("outside ["), std::string::npos) << spec << ": "
                                                           << error;
  }
  EXPECT_FALSE(parse_scenario("net=alexnet;mb=32x", &s, &error));
  EXPECT_NE(error.find("not an integer"), std::string::npos) << error;
  // The largest values that fit still parse.
  ASSERT_TRUE(parse_scenario(
      "net=alexnet;mb=2147483647;buf=9223372036854775807", &s, &error))
      << error;
  EXPECT_EQ(s.params.mini_batch, 2147483647);
  EXPECT_EQ(s.params.buffer_bytes, 9223372036854775807LL);
}

// ---- LruMap -----------------------------------------------------------------

TEST(LruMap, EvictsLeastRecentlyUsedAtCapacity) {
  util::LruMap<int> lru(2);
  lru.put("a", 1);
  lru.put("b", 2);
  ASSERT_NE(lru.get("a"), nullptr);  // refresh a: b is now LRU
  lru.put("c", 3);                   // evicts b
  EXPECT_EQ(lru.get("b"), nullptr);
  ASSERT_NE(lru.get("a"), nullptr);
  EXPECT_EQ(*lru.get("a"), 1);
  ASSERT_NE(lru.get("c"), nullptr);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(LruMap, PutRefreshesExistingKeyWithoutEviction) {
  util::LruMap<int> lru(2);
  lru.put("a", 1);
  lru.put("b", 2);
  lru.put("a", 10);  // refresh, not insert: nothing evicted
  EXPECT_EQ(lru.evictions(), 0u);
  EXPECT_EQ(*lru.get("a"), 10);
  lru.put("c", 3);  // now b (the LRU) goes
  EXPECT_EQ(lru.get("b"), nullptr);
  EXPECT_NE(lru.get("a"), nullptr);
}

// ---- ServeCore --------------------------------------------------------------

TEST(ServeCore, AnswersAreBitIdenticalToBatchEvaluator) {
  const std::vector<std::string> specs = {
      "net=alexnet;cfg=MBS2;buf=8388608",
      "net=alexnet;cfg=MBS2;dev=systolic;buf=8388608",
      "net=alexnet;dev=gpu",
      "net=alexnet;cfg=MBS2;stage=schedule",
      "net=alexnet;cfg=MBS2;stage=traffic",
      "net=alexnet;stage=network",
      "net=vit_small;seq=256;cfg=MBS2;stage=traffic",
  };
  Evaluator batch;
  ServeCore core(nullptr);
  for (const std::string& spec : specs) {
    Scenario s;
    std::string error;
    ASSERT_TRUE(parse_scenario(spec, &s, &error)) << spec << ": " << error;
    const std::string expected =
        ServeCore::format_answer(s, evaluate_scenario(s, batch));
    const ServeCore::Answer a = core.query(spec);
    ASSERT_TRUE(a.ok) << spec << ": " << a.text;
    EXPECT_EQ(a.text, expected) << spec;
  }
}

TEST(ServeCore, TiersClassifyHotStoreAndComputed) {
  const std::string dir = test_dir("serve_tiers");
  const std::string path = dir + "/evaluator.mbscache";

  // Pre-warm the store with one scenario through the batch path.
  const std::string warm_spec = "net=alexnet;cfg=MBS2;buf=8388608";
  Scenario warm;
  std::string error;
  ASSERT_TRUE(parse_scenario(warm_spec, &warm, &error));
  {
    CacheStore store(path);
    Evaluator eval(&store);
    // Every stage a batch sweep row writes; the serve path reads only the
    // one its answer prints.
    evaluate_scenario(warm, eval);
    ASSERT_TRUE(store.save());
  }

  CacheStore store(path);
  ServeCore core(&store, /*hot_capacity=*/1);
  // Warm key, cold LRU: served from the store.
  ServeCore::Answer a = core.query(warm_spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);
  // Same key again: now resident in the hot set.
  a = core.query(warm_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kHot);
  // A key no sweep ever computed: the compute tier, written through.
  const std::string cold_spec = "net=alexnet;cfg=MBS1;buf=4194304";
  a = core.query(cold_spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kComputed);
  // The cold query evicted the warm key (capacity 1), but the store still
  // answers it without recomputing.
  a = core.query(warm_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);
  // And the written-through cold key now store-hits a FRESH core (fresh
  // LRU, fresh store instance): write-through really persisted it.
  CacheStore store2(path);
  ServeCore core2(&store2, 1);
  a = core2.query(cold_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);

  const ServeStats st = core.stats();
  EXPECT_EQ(st.queries, 4u);
  EXPECT_EQ(st.hot_hits, 1u);
  EXPECT_EQ(st.store_hits, 2u);
  EXPECT_EQ(st.computed, 1u);
  EXPECT_EQ(st.errors, 0u);
  fs::remove_all(dir);
}

TEST(ServeCore, DaemonKeepsNoEntriesAcrossQueries) {
  const std::string dir = test_dir("serve_bounded");
  const std::string path = dir + "/evaluator.mbscache";

  // 200 distinct cycle-backend keys through a hot set of 4: every cold
  // query writes its entries through and the store keeps none of them, so
  // the daemon's memory is the hot set plus one query's evaluation.
  std::vector<std::string> specs;
  for (int i = 0; i < 200; ++i)
    specs.push_back("net=alexnet;cfg=MBS2;dev=systolic;df=" +
                    std::string(i % 3 == 0 ? "os" : i % 3 == 1 ? "ws" : "is") +
                    ";spad=" + std::to_string(65536 * (1 + i / 3)));
  CacheStore store(path);
  ServeCore core(&store, /*hot_capacity=*/4);
  std::vector<std::string> first;
  for (const std::string& spec : specs) {
    const ServeCore::Answer a = core.query(spec);
    ASSERT_TRUE(a.ok) << spec << ": " << a.text;
    EXPECT_EQ(a.source, ServeCore::Source::kComputed) << spec;
    EXPECT_FALSE(store.dirty()) << spec;
    first.push_back(a.text);
  }
  // Evicted long ago, every key comes back from the store unchanged.
  const ServeStats before = core.stats();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ServeCore::Answer a = core.query(specs[i]);
    EXPECT_EQ(a.text, first[i]) << specs[i];
    EXPECT_FALSE(store.dirty()) << specs[i];
  }
  const ServeStats after = core.stats();
  EXPECT_EQ(after.store_hits - before.store_hits, 200u);
  EXPECT_EQ(after.computed, before.computed);
  fs::remove_all(dir);
}

TEST(ServeCore, MalformedAndUnknownQueriesAreCleanErrors) {
  ServeCore core(nullptr);
  ServeCore::Answer a = core.query("cfg=MBS2");
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kError);
  a = core.query("net=notanet");
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("notanet"), std::string::npos);
  a = core.query("net=alexnet;dev=abacus");
  EXPECT_FALSE(a.ok);
  // seq validation is a serve-side check: the parse accepts any
  // non-negative token count, but the query must fail cleanly when the
  // network cannot take it.
  a = core.query("net=vit_small;seq=200;cfg=MBS2");  // not a perfect square
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("perfect square"), std::string::npos);
  a = core.query("net=alexnet;seq=16");  // CNNs have no sequence axis
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("no sequence-length axis"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 5u);
  EXPECT_EQ(core.stats().queries, 5u);
}

// ---- CacheStore save-failure propagation ------------------------------------

TEST(CacheStoreSave, UnwritableDirectoryPropagatesFailure) {
  const std::string dir = test_dir("save_fail");
  // The store path's parent is a regular FILE, so no entry (nor the shard
  // directory) can ever be created — every write must fail loudly, not
  // vanish. (A permission-bit test would be bypassed by root, which CI
  // containers run as; a file-in-the-way fails for every uid.)
  std::ofstream(dir + "/blocker") << "not a directory";
  const std::string path = dir + "/blocker/evaluator.mbscache";

  CacheStore store(path);
  Evaluator eval(&store);
  eval.step(mbs2_scenario("alexnet"));
  EXPECT_TRUE(store.dirty());
  EXPECT_FALSE(store.save());
  EXPECT_GT(store.save_failures(), 0u);
  // The entries stay dirty: a later save to a fixed-up path would retry
  // rather than silently dropping them.
  EXPECT_TRUE(store.dirty());
  EXPECT_FALSE(store.save());
  fs::remove_all(dir);
}

// ---- Fault registry ---------------------------------------------------------

class FaultTest : public testing::Test {
 protected:
  void TearDown() override { util::fault_clear(); }
};

TEST_F(FaultTest, FailNthFiresExactlyOnce) {
  ASSERT_TRUE(util::fault_arm("x.site:fail@2"));
  EXPECT_FALSE(util::fault_point("x.site").fail);  // call 1
  EXPECT_TRUE(util::fault_point("x.site").fail);   // call 2: the injection
  EXPECT_FALSE(util::fault_point("x.site").fail);  // call 3
  EXPECT_FALSE(util::fault_point("other.site").fail);  // unarmed site
  EXPECT_EQ(util::fault_injection_count(), 1);
}

TEST_F(FaultTest, EveryKthFiresPeriodically) {
  ASSERT_TRUE(util::fault_arm("y.site:every@3"));
  int failures = 0;
  for (int i = 0; i < 9; ++i)
    if (util::fault_point("y.site").fail) ++failures;
  EXPECT_EQ(failures, 3);  // calls 3, 6, 9
}

TEST_F(FaultTest, TornCarriesTheByteBudget) {
  ASSERT_TRUE(util::fault_arm("z.site:torn@1/17"));
  const util::FaultDecision d = util::fault_point("z.site");
  EXPECT_FALSE(d.fail);
  EXPECT_TRUE(d.torn);
  EXPECT_EQ(d.torn_bytes, 17);
  EXPECT_FALSE(util::fault_point("z.site").torn);  // only the 1st call
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(util::fault_arm("nosep"));
  EXPECT_FALSE(util::fault_arm("s:unknown@1"));
  EXPECT_FALSE(util::fault_arm("s:fail@0"));      // counts are 1-based
  EXPECT_FALSE(util::fault_arm("s:fail@abc"));
  EXPECT_FALSE(util::fault_arm("s:torn@1"));      // torn needs /bytes
  EXPECT_TRUE(util::fault_arm("s:fail@1,t:every@2"));  // list form parses
}

TEST_F(FaultTest, TornWriteLeavesTruncatedFileButReportsSuccess) {
  const std::string dir = test_dir("fault_torn");
  ASSERT_TRUE(util::fault_arm("w.site:torn@1/5"));
  // The torn write must land on the FINAL path (bypassing the tmp+rename
  // protection — that is the failure mode being simulated) and still
  // report success, exactly like a kernel that acked a write it then lost.
  EXPECT_TRUE(util::fs::write_atomic(dir + "/f", "0123456789", "w.site"));
  std::ifstream in(dir + "/f", std::ios::binary);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "01234");
  // Next write is clean and atomic again.
  EXPECT_TRUE(util::fs::write_atomic(dir + "/f", "0123456789", "w.site"));
  fs::remove_all(dir);
}

TEST_F(FaultTest, InjectedEioFailsTheOperationCleanly) {
  const std::string dir = test_dir("fault_eio");
  ASSERT_TRUE(util::fs::write_atomic(dir + "/a", "x", "q.site"));
  ASSERT_TRUE(util::fault_arm("q.site:fail@1"));
  EXPECT_FALSE(util::fs::write_atomic(dir + "/b", "y", "q.site"));
  EXPECT_FALSE(fs::exists(dir + "/b"));  // EIO means nothing was written
  EXPECT_TRUE(fs::exists(dir + "/a"));
  fs::remove_all(dir);
}

TEST_F(FaultTest, SaveRetriesPastATransientWriteFailure) {
  const std::string dir = test_dir("fault_retry");
  ::setenv("MBS_CACHE_RETRY_MS", "1", 1);
  // First write attempt per entry can fail: the bounded retry must land
  // the entry anyway, and a reload must see it.
  ASSERT_TRUE(util::fault_arm("cache.entry.write:fail@1"));
  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(dir + "/evaluator.mbscache");
    Evaluator eval(&store);
    eval.step(s);
    EXPECT_TRUE(store.save());
    EXPECT_EQ(store.save_failures(), 0u);
  }
  EXPECT_GT(util::fault_injection_count(), 0);
  util::fault_clear();
  CacheStore reload(dir + "/evaluator.mbscache");
  Evaluator eval(&reload);
  eval.step(s);
  EXPECT_GT(reload.loaded_entries(), 0u);
  ::unsetenv("MBS_CACHE_RETRY_MS");
  fs::remove_all(dir);
}

// ---- env_int ----------------------------------------------------------------

TEST(EnvInt, ParsesValidatesAndFallsBack) {
  ::setenv("MBS_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 42);
  ::setenv("MBS_TEST_ENV_INT", "1x", 1);  // trailing junk
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "banana", 1);
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "101", 1);  // above hi
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "-1", 1);  // below lo
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "", 1);  // empty string == unset
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::unsetenv("MBS_TEST_ENV_INT");
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "100", 1);  // bounds are inclusive
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 100);
  ::unsetenv("MBS_TEST_ENV_INT");
}

// ---- ServeCore degradation --------------------------------------------------

TEST(ServeCore, CorruptStoreEntryDegradesGracefullyToRecompute) {
  const std::string dir = test_dir("serve_degraded");
  const std::string path = dir + "/evaluator.mbscache";
  const std::string spec = "net=alexnet;cfg=MBS2;buf=8388608";
  Scenario s;
  std::string error;
  ASSERT_TRUE(parse_scenario(spec, &s, &error));

  Evaluator batch;
  const std::string expected =
      ServeCore::format_answer(s, evaluate_scenario(s, batch));

  {
    CacheStore store(path);
    Evaluator eval(&store);
    evaluate_scenario(s, eval);
    ASSERT_TRUE(store.save());
  }
  // Flip a byte in every step-stage record: the serve path must detect the
  // damage (checksum), quarantine, recompute, and still answer correctly.
  std::size_t flipped = 0;
  for (const auto& e : fs::recursive_directory_iterator(path + ".d/step")) {
    if (!e.is_regular_file()) continue;
    std::string bytes = slurp(e.path().string());
    ASSERT_GT(bytes.size(), 40u);
    // Near the end: inside the record body, where only the checksum (not a
    // header token mismatch) can catch the damage.
    bytes[bytes.size() - 20] ^= 0x01;
    std::ofstream(e.path(), std::ios::binary | std::ios::trunc) << bytes;
    ++flipped;
  }
  ASSERT_GT(flipped, 0u);

  CacheStore store(path);
  ServeCore core(&store, 4);
  const ServeCore::Answer a = core.query(spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.text, expected);
  const ServeStats st = core.stats();
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.degraded, 1u);
  EXPECT_GT(store.corrupt_entries(), 0u);
  // The damaged record was quarantined, not deleted or left in place.
  EXPECT_TRUE(fs::exists(path + ".d/quarantine"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mbs::engine
