#include "engine/spool.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "util/env.h"
#include "util/fault.h"
#include "util/serde.h"

namespace mbs::engine {

namespace fs = std::filesystem;

namespace {

constexpr int kManifestVersion = 1;

/// The unit index k of a spool file name "u<k>" — or, with
/// `allow_suffix`, "u<k>.<anything>" (a claim name) — in a queue of `units`
/// units. -1 when the name is malformed, spells k with a leading zero, or
/// names k >= units: a stray file must neither hide a real unit nor count
/// toward all_done(). Exact names also keep write_atomic's "u<k>.tmp.<pid>"
/// temporaries out of done/ and failed/ counts.
int unit_of(const std::string& name, std::size_t units, bool allow_suffix) {
  if (name.size() < 2 || name[0] != 'u') return -1;
  std::size_t k = 0;
  std::size_t i = 1;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i) {
    k = k * 10 + static_cast<std::size_t>(name[i] - '0');
    // Bounded every digit, so the accumulator can never overflow.
    if (k >= units || k > static_cast<std::size_t>(INT_MAX)) return -1;
  }
  if (i == 1 || (name[1] == '0' && i > 2)) return -1;
  if (i != name.size() && !(allow_suffix && name[i] == '.')) return -1;
  return static_cast<int>(k);
}

/// A parsed claim name "u<k>.g<gen>.<host>.<pid>". The host may itself
/// contain dots (an FQDN): the pid is everything after the *last* dot, the
/// host everything between the generation stamp and that.
struct ClaimInfo {
  int unit = -1;
  long gen = 0;
  std::string host;
  long pid = -1;
};

bool parse_claim(const std::string& name, std::size_t units,
                 ClaimInfo* out) {
  out->unit = unit_of(name, units, /*allow_suffix=*/true);
  if (out->unit < 0) return false;
  const std::size_t first_dot = name.find('.');
  if (first_dot == std::string::npos || first_dot + 2 >= name.size() ||
      name[first_dot + 1] != 'g')
    return false;
  char* end = nullptr;
  out->gen = std::strtol(name.c_str() + first_dot + 2, &end, 10);
  if (end == name.c_str() + first_dot + 2 || *end != '.' || out->gen <= 0)
    return false;
  const std::size_t host_start =
      static_cast<std::size_t>(end - name.c_str()) + 1;
  const std::size_t last_dot = name.rfind('.');
  if (last_dot == std::string::npos || last_dot < host_start + 1) return false;
  out->host = name.substr(host_start, last_dot - host_start);
  if (out->host.empty()) return false;
  char* pend = nullptr;
  out->pid = std::strtol(name.c_str() + last_dot + 1, &pend, 10);
  return pend != name.c_str() + last_dot + 1 && *pend == '\0' && out->pid > 0;
}

bool process_alive(long pid) {
  // kill(pid, 0) probes existence without signaling. EPERM would mean
  // "exists but not ours" — workers share a uid, so treat only ESRCH as
  // dead and anything else as alive (never steal a live worker's claim).
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

/// True when the claim file's mtime is older than `lease_ms`. A missing
/// file (someone else already took it over) counts as not expired.
bool lease_expired(const std::string& path, long lease_ms) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  struct timespec now;
  ::clock_gettime(CLOCK_REALTIME, &now);
  const long age_ms =
      (now.tv_sec - st.st_mtim.tv_sec) * 1000L +
      (now.tv_nsec - st.st_mtim.tv_nsec) / 1000000L;
  return age_ms > lease_ms;
}

/// rename(2) preserves the source's mtime, so a freshly taken claim would
/// instantly look lease-expired; every successful claim rename is followed
/// by an mtime touch.
void touch(const std::string& path) {
  ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
}

std::string this_host() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0 || !buf[0]) return "localhost";
  return buf;
}

long lease_ms_env() {
  return util::env_int("MBS_SPOOL_LEASE_MS", 60000, 100, 86400000);
}

long poison_limit_env() {
  return util::env_int("MBS_SPOOL_POISON_LIMIT", 3, 1, 1000000);
}

}  // namespace

SpoolQueue::SpoolQueue(std::string dir, std::uint64_t fingerprint,
                       std::size_t units)
    : dir_(std::move(dir)),
      fingerprint_(fingerprint),
      units_(units),
      host_(this_host()) {}

std::string SpoolQueue::claim_name(int unit, long gen) const {
  return dir_ + "/claimed/u" + std::to_string(unit) + ".g" +
         std::to_string(gen) + "." + host_ + "." +
         std::to_string(static_cast<long>(::getpid()));
}

void SpoolQueue::init() {
  std::error_code ec;
  fs::create_directories(dir_ + "/todo", ec);
  fs::create_directories(dir_ + "/claimed", ec);
  fs::create_directories(dir_ + "/done", ec);
  fs::create_directories(dir_ + "/failed", ec);

  const std::string manifest = dir_ + "/manifest";
  {
    std::string text;
    if (util::fs::read_file(manifest, &text, "spool.manifest.read")) {
      util::serde::Reader r(text);
      const bool magic_ok = r.read_string() == "mbs-spool" &&
                            r.read_int() == kManifestVersion;
      const std::uint64_t fp = static_cast<std::uint64_t>(r.read_int());
      const std::int64_t n = r.read_int();
      if (!magic_ok || r.fail() || fp != fingerprint_ ||
          n != static_cast<std::int64_t>(units_)) {
        std::fprintf(stderr,
                     "SpoolQueue: %s already holds a different grid "
                     "(manifest says fingerprint %016llx over %lld units, "
                     "this grid is %016llx over %zu); refusing to mix "
                     "grids in one spool\n",
                     dir_.c_str(), static_cast<unsigned long long>(fp),
                     static_cast<long long>(n),
                     static_cast<unsigned long long>(fingerprint_), units_);
        std::abort();
      }
    } else {
      util::serde::Writer w;
      w.put_string("mbs-spool");
      w.put_int(kManifestVersion);
      w.put_int(static_cast<std::int64_t>(fingerprint_));
      w.put_int(static_cast<std::int64_t>(units_));
      // Racing workers write identical bytes; the atomic rename makes the
      // last one a no-op.
      if (!util::fs::write_atomic(manifest, w.str() + "\n",
                                  "spool.manifest.write")) {
        std::fprintf(stderr, "SpoolQueue: cannot write %s\n",
                     manifest.c_str());
        std::abort();
      }
    }
  }

  // Seed todo/ with every unit not already claimed, done, or failed. The
  // existence checks and the O_EXCL create are not one atomic step, so a
  // unit that finishes in the gap can be re-created and re-executed —
  // harmless: the work is deterministic and memoized, and mark_done is
  // idempotent.
  std::set<int> busy = units_in("/claimed", /*claims=*/true);
  busy.merge(units_in("/done"));
  busy.merge(units_in("/failed"));
  for (std::size_t k = 0; k < units_; ++k) {
    if (busy.count(static_cast<int>(k))) continue;
    util::fs::create_exclusive(dir_ + "/todo/u" + std::to_string(k), "",
                               "spool.todo.create");
  }
}

int SpoolQueue::claim() {
  // Fresh units first: whatever is in todo/.
  for (int k : units_in("/todo")) {
    const std::string from = dir_ + "/todo/u" + std::to_string(k);
    const std::string to = claim_name(k, 1);
    // Atomic: exactly one racing worker's rename succeeds.
    if (util::fs::rename_file(from, to, "spool.claim.rename")) {
      touch(to);  // rename kept todo/'s old mtime; start the lease now
      std::lock_guard<std::mutex> lock(mu_);
      claim_paths_[k] = to;
      return k;
    }
  }

  // Nothing fresh: look for stale claims. A same-host owner is dead when
  // its pid is gone; a foreign owner is dead when its lease expired (pids
  // don't travel between machines, mtimes on a shared filesystem do).
  const long lease_ms = lease_ms_env();
  const long poison_limit = poison_limit_env();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_ + "/claimed", ec)) {
    const std::string name = entry.path().filename().string();
    ClaimInfo ci;
    if (!parse_claim(name, units_, &ci)) continue;
    const std::string claim = dir_ + "/claimed/" + name;
    if (ci.host == host_) {
      if (process_alive(ci.pid)) continue;
    } else if (!lease_expired(claim, lease_ms)) {
      continue;
    }
    if (fs::exists(dir_ + "/done/u" + std::to_string(ci.unit), ec)) {
      // Crashed after completing: results are already in the store; just
      // drop the stale claim.
      util::fs::remove_file(claim, "spool.claim.unlink");
      continue;
    }
    if (ci.gen >= poison_limit) {
      // The unit has now killed `gen` consecutive owners: quarantine it
      // instead of feeding it another worker. The rename is the atomic
      // hand-off; the diagnostics overwrite a file we then own.
      const std::string failed = dir_ + "/failed/u" + std::to_string(ci.unit);
      if (util::fs::rename_file(claim, failed, "spool.failed.rename")) {
        std::fprintf(stderr,
                     "SpoolQueue: unit %d poisoned after %ld failed claims "
                     "(last owner %s.%ld); quarantined in failed/\n",
                     ci.unit, ci.gen, ci.host.c_str(), ci.pid);
        util::fs::write_atomic(
            failed,
            "poisoned unit " + std::to_string(ci.unit) + " after " +
                std::to_string(ci.gen) + " failed claims; last owner " +
                ci.host + "." + std::to_string(ci.pid) + "\n",
            "spool.failed.write");
      }
      continue;
    }
    std::fprintf(stderr,
                 "SpoolQueue: reclaiming unit %d from dead worker %ld "
                 "(claim generation %ld)\n",
                 ci.unit, ci.pid, ci.gen);
    // Takeover: rename the stale claim straight to ours with a bumped
    // generation. One atomic step — racing reclaimers can't both win, and
    // the old claim name ceases to exist, so nobody can reclaim it twice.
    const std::string to = claim_name(ci.unit, ci.gen + 1);
    if (util::fs::rename_file(claim, to, "spool.reclaim.rename")) {
      touch(to);
      std::lock_guard<std::mutex> lock(mu_);
      claim_paths_[ci.unit] = to;
      return ci.unit;
    }
  }
  return -1;
}

bool SpoolQueue::refresh_claim(int unit) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = claim_paths_.find(unit);
    if (it == claim_paths_.end()) return false;
    path = it->second;
  }
  touch(path);
  return true;
}

void SpoolQueue::mark_done(int unit) {
  const std::string done = dir_ + "/done/u" + std::to_string(unit);
  // Done marker first (temp + rename: atomic, idempotent), claim release
  // second — the unit is never invisible, so a crash between the two at
  // worst leaves a stale claim that the dead-owner sweep drops.
  if (!util::fs::write_atomic(done, "done\n", "spool.done.write")) {
    std::fprintf(stderr, "SpoolQueue: cannot write %s\n", done.c_str());
    return;  // keep the claim: the unit must not look claimable
  }
  std::string claim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = claim_paths_.find(unit);
    if (it != claim_paths_.end()) {
      claim = it->second;
      claim_paths_.erase(it);
    }
  }
  if (!claim.empty()) util::fs::remove_file(claim, "spool.claim.unlink");
}

std::set<int> SpoolQueue::units_in(const char* sub, bool claims) const {
  std::set<int> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_ + sub, ec)) {
    const int k = unit_of(entry.path().filename().string(), units_, claims);
    if (k >= 0) out.insert(k);
  }
  return out;
}

std::size_t SpoolQueue::done_count() const { return units_in("/done").size(); }

std::size_t SpoolQueue::failed_count() const {
  return units_in("/failed").size();
}

}  // namespace mbs::engine
