// mbs_serve: a query daemon over the warm evaluator store.
//
// Reads one request per line on stdin, answers one line on stdout
// (flushed per answer, so it composes with pipes and coprocesses):
//
//   <scenario spec>   e.g. net=resnet50;cfg=MBS2;buf=8388608
//                     -> "ok <metrics>" or "err <message>"
//   stats             -> "stats queries=... hot=... store=... computed=...
//                         errors=... degraded=..."
//   quit              -> exits (EOF does too)
//
// Blank lines and lines starting with '#' are ignored. Answer payloads
// are ServeCore::format_answer renderings: %.17g doubles, so an answer is
// string-equal to the batch Evaluator's result if and only if every
// double is bit-identical (the sweep-service CI job asserts this).
//
// Serving tiers: in-memory LRU hot set (capacity MBS_SERVE_HOT, default
// 64) over the CacheStore (--cache-dir / MBS_CACHE_DIR; answers any key a
// batch sweep already computed without recomputing it), with cold keys
// evaluated on demand and written through to the store. Memory is bounded
// by the hot capacity: the store is read from disk per query (outside its
// lock) and keeps no entry once it is written.
//
// Per-query failures never kill the daemon (they answer "err ..." and
// count in the errors stat); store corruption discovered mid-read degrades
// that query to fresh evaluation (the degraded stat). SIGTERM/SIGINT shut
// down cleanly: the read loop exits and dirty store entries are flushed
// before the process does.
//
// Usage: mbs_serve [--cache-dir=DIR] [--threads=T]
#include <signal.h>

#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "engine/cache_store.h"
#include "engine/driver.h"
#include "engine/serve.h"
#include "util/env.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void on_shutdown_signal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace mbs;
  engine::Driver driver(argc, argv);
  if (!driver.store())
    std::fprintf(stderr,
                 "mbs_serve: no cache store (--cache-dir/MBS_CACHE_DIR); "
                 "every cold key will be computed, none remembered on "
                 "disk\n");

  // No SA_RESTART: the signal must interrupt the blocking stdin read so
  // the loop observes g_shutdown instead of waiting for the next line.
  struct sigaction sa = {};
  sa.sa_handler = on_shutdown_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::size_t hot_capacity = static_cast<std::size_t>(
      util::env_int("MBS_SERVE_HOT", 64, 1, 1 << 24));
  engine::ServeCore core(driver.store(), hot_capacity);

  std::string line;
  while (!g_shutdown && std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit") break;
    if (line == "stats") {
      const engine::ServeStats st = core.stats();
      std::printf("stats queries=%zu hot=%zu store=%zu computed=%zu "
                  "errors=%zu degraded=%zu\n",
                  st.queries, st.hot_hits, st.store_hits, st.computed,
                  st.errors, st.degraded);
      std::fflush(stdout);
      continue;
    }
    const engine::ServeCore::Answer a = core.query(line);
    std::printf("%s %s\n", a.ok ? "ok" : "err", a.text.c_str());
    std::fflush(stdout);
  }
  if (g_shutdown) {
    // Flush write-through results the dtor would also catch — doing it
    // here makes the shutdown path explicit and loggable.
    if (driver.store() && driver.store()->dirty()) driver.store()->save();
    std::fprintf(stderr, "mbs_serve: caught signal, flushed store, bye\n");
  }
  return 0;
}
