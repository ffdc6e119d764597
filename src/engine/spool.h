// SpoolQueue: a filesystem work queue for multi-process sweep drains.
//
// A spool splits one sweep across processes dynamically. N independent
// worker processes point at one spool directory (MBS_SPOOL_DIR) and claim
// work units — schedule-key groups of the grid — whenever they go idle, so
// an unbalanced grid drains at the speed of the fleet rather than of its
// slowest worker.
//
// The protocol is files and atomic renames, the same trick
// CacheStore::save uses — no server, no locks:
//
//   <dir>/manifest       grid fingerprint + unit count (rejects a worker
//                        whose grid differs from the queue's)
//   <dir>/todo/u<k>      unit k is unclaimed
//   <dir>/claimed/u<k>.g<gen>.<host>.<pid>
//                        unit k is being evaluated; <gen> counts how many
//                        times the unit has been claimed, <host>.<pid>
//                        identifies the owner
//   <dir>/done/u<k>      unit k's results are in the shared cache store
//   <dir>/failed/u<k>    unit k killed its owner <gen> times in a row and
//                        is quarantined with diagnostics (poisoned unit)
//
// A claim is `rename(todo/u<k>, claimed/u<k>.g1.<host>.<pid>)`: rename(2)
// is atomic, so exactly one racing worker wins. Completion writes the done
// marker (temp + rename) *before* unlinking the claim, so a unit is always
// visible in at least one state.
//
// Crash recovery distinguishes owners by host. A same-host owner is probed
// with kill(pid, 0); a cross-host pid is meaningless, so foreign claims are
// declared dead only when their lease expires — the claim file's mtime is
// older than MBS_SPOOL_LEASE_MS. Live owners refresh the mtime via
// refresh_claim() heartbeats while a long unit evaluates, so a slow unit
// is never falsely reclaimed. Reclaim is a *takeover*: the stale claim is
// renamed directly to `u<k>.g<gen+1>.<newhost>.<newpid>` — one atomic
// step, one winner, and the generation stamp means two reclaimers can
// never both think they own the unit (the double-reclaim ABA of a
// claim→todo→claim round trip). A unit whose generation would exceed
// MBS_SPOOL_POISON_LIMIT moves to failed/ with diagnostics instead of
// killing workers forever; failed units count toward all_done() so the
// fleet drains past them.
//
// Workers share *results* through the concurrent CacheStore (flushed per
// unit), not through the queue: after the drain each worker materializes
// the full sweep warm from the store, so every worker's output is
// byte-identical to a single-process run. Rare races (a unit re-created
// after a claim/done was concurrently erased by init) at worst re-execute
// deterministic memoized work — never corrupt it.
//
// Every mutation routes through util::fs named fault sites
// (spool.claim.rename, spool.reclaim.rename, spool.done.write, ...), so
// MBS_FAULTS can deterministically kill a worker at any protocol step.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

namespace mbs::engine {

class SpoolQueue {
 public:
  /// A queue at `dir` for a grid with `units` work units and the given
  /// content fingerprint (util::fnv1a64 over the units' member cache
  /// keys). Callers normally embed the fingerprint in `dir` too, so
  /// different grids sharing one MBS_SPOOL_DIR root get disjoint queues.
  SpoolQueue(std::string dir, std::uint64_t fingerprint, std::size_t units);

  /// Creates the directories, the manifest, and one todo file per unit not
  /// already claimed, done, or failed. Idempotent, and safe to race with
  /// other workers' init. Aborts with a message when `dir` already holds a
  /// queue for a different grid (fingerprint or unit-count mismatch) —
  /// mixing grids in one queue would corrupt both drains.
  void init();

  /// Claims one unit and returns its index, or -1 when nothing is
  /// claimable right now (every remaining unit is done, failed, or held
  /// by a live worker). Stale claims — same-host owner dead by pid probe,
  /// or foreign owner's lease expired — are taken over directly with a
  /// bumped generation; a unit at the poison limit moves to failed/.
  int claim();

  /// Heartbeat: bumps the mtime of this process's claim on `unit` so its
  /// lease stays fresh while a long evaluation runs. Returns false when
  /// this process holds no claim on `unit` (e.g. it was never claimed
  /// here). Thread-safe against claim()/mark_done().
  bool refresh_claim(int unit);

  /// Marks `unit` done and releases this process's claim. Idempotent.
  void mark_done(int unit);

  /// Distinct units 0 <= k < unit_count() with a done marker; stray names
  /// (k out of range, malformed, temporaries) never count.
  std::size_t done_count() const;
  /// Units quarantined in failed/ (poisoned: killed too many workers).
  std::size_t failed_count() const;
  /// Done or failed — a poisoned unit must not livelock the fleet.
  bool all_done() const { return done_count() + failed_count() >= units_; }
  std::size_t unit_count() const { return units_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string claim_name(int unit, long gen) const;
  /// Units 0 <= k < unit_count() named by the files in <dir>/<sub>: exact
  /// "u<k>" names, or claim names "u<k>.<...>" when `claims`.
  std::set<int> units_in(const char* sub, bool claims = false) const;

  std::string dir_;
  std::uint64_t fingerprint_ = 0;
  std::size_t units_ = 0;
  std::string host_;

  mutable std::mutex mu_;
  /// unit -> full path of the claim this process currently holds.
  std::unordered_map<int, std::string> claim_paths_;
};

}  // namespace mbs::engine
