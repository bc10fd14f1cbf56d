// Serving benchmark program: builds crawl-derived worlds from a seed,
// serves each world's timestamped query stream through
// sim::ServingWorld, and prints one JSON object per measurement on
// stdout (run.py turns them into metrics and checks them).
//
//   perfbench_serve --mode serve|trace --seed N --seconds S --worlds W
//                   --engine E --top-k K --browse B --qps Q
//                   --queries M --compact-delta D
//
// Every world has kNodes peers over a kScale crawl, with kOffline of them
// offline in the churn's steady state.
//
// mode serve: builds worlds 0, 1, ... from sub-seeds of --seed (at least
//   W, then more while the time budget lasts) and serves each once at 1
//   and once at 2 query threads, building the world afresh for each
//   serve; each serve prints a "serve" record with its set-up times,
//   run() wall time and deterministic aggregate. A "pooled" record
//   follows world W-1: the peak RSS so far and the latency quantiles of
//   worlds 0..W-1 merged. Figures over W independent worlds keep a run
//   from hanging on one world's draw.
// mode trace: world 0 served at 1 and 2 threads, then each layer's
//   public calls timed from outside the serving loop on the same world
//   and stream ("layer" record).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "src/overlay/churn.hpp"
#include "src/overlay/graph.hpp"
#include "src/overlay/topology.hpp"
#include "src/sim/adaptive.hpp"
#include "src/sim/dht.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/engine_registry.hpp"
#include "src/sim/network.hpp"
#include "src/sim/result_cache.hpp"
#include "src/sim/serving.hpp"
#include "src/trace/content_model.hpp"
#include "src/trace/gnutella.hpp"
#include "src/trace/query_trace.hpp"
#include "src/util/rng.hpp"

using namespace qcp2p;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// World size and churn, the same on every workload.
constexpr std::size_t kNodes = 5000;
constexpr double kScale = 0.015;
constexpr double kOffline = 0.3;

struct Options {
  std::string mode;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string engine;
  std::uint32_t top_k = 0;
  double browse = 0.0;
  double qps = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t compact_delta = 0;
  std::size_t worlds = 0;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench_serve: %s\n", message.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& raw, double lo,
                    double hi) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(raw, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != raw.size() || raw.empty() || !(value >= lo && value <= hi)) {
    usage_error(flag + " must be a number in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + raw + "'");
  }
  return value;
}

/// Every flag is required: the workload table lives in run.py, and a
/// silently defaulted knob would measure a different workload.
Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("expected --flag value pairs, got '" + name + "'");
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  auto take = [&](const std::string& name) {
    const auto it = flags.find(name);
    if (it == flags.end()) usage_error("missing --" + name);
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto integer = [&](const std::string& name, double lo, double hi) {
    const double v = parse_number("--" + name, take(name), lo, hi);
    if (v != static_cast<double>(static_cast<std::uint64_t>(v))) {
      usage_error("--" + name + " must be a whole number");
    }
    return static_cast<std::uint64_t>(v);
  };
  Options o;
  o.mode = take("mode");
  if (o.mode != "serve" && o.mode != "trace") {
    usage_error("--mode must be serve or trace");
  }
  o.seed = integer("seed", 0, 9.0e15);
  o.seconds = parse_number("--seconds", take("seconds"), 0.0, 3600.0);
  o.engine = take("engine");
  if (sim::find_engine(o.engine) == nullptr) {
    usage_error("unknown engine '" + o.engine + "'");
  }
  o.top_k = static_cast<std::uint32_t>(integer("top-k", 0, 1000));
  o.browse = parse_number("--browse", take("browse"), 0.0, 1.0);
  o.qps = parse_number("--qps", take("qps"), 1e-3, 1e9);
  o.queries = integer("queries", 1, 1e8);
  o.compact_delta = integer("compact-delta", 1, 1e12);
  o.worlds = static_cast<std::size_t>(integer("worlds", 1, 1000));
  if (!flags.empty()) usage_error("unknown flag --" + flags.begin()->first);
  return o;
}

/// Independent sub-seed `component` of the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t component) {
  return util::mix64(util::mix64(seed) ^ component);
}

// --- world -----------------------------------------------------------------

struct SetupTimes {
  double crawl_s = 0.0;
  double store_s = 0.0;
  double topology_s = 0.0;
  double query_trace_s = 0.0;
  double ctor_s = 0.0;
  /// Host time from start until the ServingWorld is constructed.
  double total_s = 0.0;
};

/// The generated inputs the serving world receives: topology, content
/// and the timestamped query stream.
struct World {
  overlay::Graph graph;
  sim::PeerStore store;
  std::vector<trace::Query> queries;
  double duration_s = 0.0;
};

/// Seed of the run's i-th world.
std::uint64_t world_seed(std::uint64_t run_seed, std::size_t i) {
  return sub_seed(run_seed, 0x100 + i);
}

sim::ServingConfig serving_config(const Options& o, std::uint64_t seed,
                                  std::size_t threads) {
  sim::ServingConfig cfg;
  cfg.engine = o.engine;
  cfg.threads = threads;
  cfg.top_k = o.top_k;
  cfg.qps = o.qps;
  cfg.churn.mean_online_s = (1.0 - kOffline) * 3600.0;
  cfg.churn.mean_offline_s = kOffline * 3600.0;
  cfg.churn.seed = sub_seed(seed, 5);
  cfg.compact_max_delta = o.compact_delta;
  cfg.seed = sub_seed(seed, 6);
  return cfg;
}

/// Generates the world of `seed`; `times` gets every phase but the
/// ServingWorld constructor, and total_s the whole build.
World build_world(const Options& o, std::uint64_t seed, SetupTimes& times) {
  const auto t0 = Clock::now();
  trace::ContentModelParams mp;
  auto scaled = [&](double full, double floor) {
    return static_cast<std::uint32_t>(std::max(floor, full * kScale));
  };
  mp.core_lexicon_size = scaled(60'000, 2'000);
  mp.tail_lexicon_size = scaled(4'000'000, 50'000);
  mp.catalog_songs = scaled(2'500'000, 25'000);
  mp.artists = scaled(400'000, 5'000);
  mp.seed = sub_seed(seed, 1);

  auto t = Clock::now();
  const trace::ContentModel model(mp);
  trace::GnutellaCrawlParams cp = trace::GnutellaCrawlParams{}.scaled(kScale);
  cp.seed = sub_seed(seed, 2);
  // One generator thread: set-up time is a metric, and on a shared host
  // a parallel crawl measures the scheduler more than the generator.
  const trace::CrawlSnapshot crawl = generate_gnutella_crawl(model, cp, 1);
  times.crawl_s = seconds_since(t);

  t = Clock::now();
  World w{overlay::Graph(0), sim::peer_store_from_crawl(crawl, kNodes), {},
          0.0};
  times.store_s = seconds_since(t);

  t = Clock::now();
  util::Rng topo_rng(sub_seed(seed, 3));
  w.graph = overlay::random_regular(kNodes, 8, topo_rng);
  times.topology_s = seconds_since(t);

  t = Clock::now();
  trace::QueryTraceParams qp;
  qp.num_queries = o.queries;
  qp.browse_session_prob = o.browse;
  qp.seed = sub_seed(seed, 4);
  trace::QueryTrace stream = generate_query_trace(model, qp);
  w.duration_s = stream.duration_s();
  w.queries = stream.queries();
  times.query_trace_s = seconds_since(t);
  times.total_s = seconds_since(t0);
  return w;
}

struct Served {
  sim::ServingReport report;
  double ctor_s = 0.0;
  double run_s = 0.0;
};

/// Hands `w` to a ServingWorld at `threads` query threads and times
/// run() over the whole stream.
Served serve(const Options& o, std::uint64_t seed, World w,
             std::size_t threads) {
  Served out;
  auto t = Clock::now();
  sim::ServingWorld serving(std::move(w.graph), std::move(w.store),
                            std::move(w.queries), w.duration_s,
                            serving_config(o, seed, threads));
  out.ctor_s = seconds_since(t);
  t = Clock::now();
  out.report = serving.run();
  out.run_s = seconds_since(t);
  return out;
}

// --- JSON output -------------------------------------------------------------

class JsonLine {
 public:
  explicit JsonLine(const char* kind) {
    out_ += "{\"kind\":\"" + std::string(kind) + "\"";
  }
  JsonLine& num(const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, v);
    out_ += buf;
    return *this;
  }
  JsonLine& count(const char* key, std::uint64_t v) {
    out_ += ",\"" + std::string(key) + "\":" + std::to_string(v);
    return *this;
  }
  JsonLine& raw(const char* key, const std::string& json) {
    out_ += ",\"" + std::string(key) + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_ + "}"; }
  void print() const {
    std::printf("%s\n", str().c_str());
    std::fflush(stdout);
  }

 private:
  std::string out_;
};

/// The serve's deterministic outcome: identical at any thread count and
/// across repeated serves of one world (run.py checks this).
std::string aggregate_json(const sim::ServingReport& r, std::size_t stream) {
  const sim::WindowStats& t = r.stats.total();
  JsonLine j("aggregate");
  j.count("stream_queries", stream)
      .count("queries", t.queries)
      .count("found", t.successes)
      .count("cache_hits", t.cache_hits)
      .count("timed", t.timed)
      .count("messages", t.messages)
      .num("p50_s", t.latency.quantile(0.50))
      .num("p99_s", t.latency.quantile(0.99))
      .num("p999_s", t.latency.quantile(0.999))
      .count("refreezes", r.refreezes)
      .count("compactions", r.compactions)
      .count("content_adds", r.content_adds)
      .count("cache_invalidations", r.cache_invalidations)
      .count("readvertisements", r.adaptive_readvertisements)
      .count("windows", r.stats.windows().size())
      .count("publish_messages", r.dht_publish_messages);
  return j.str();
}

std::string setup_json(const SetupTimes& s) {
  JsonLine j("setup");
  j.num("crawl_s", s.crawl_s)
      .num("store_s", s.store_s)
      .num("topology_s", s.topology_s)
      .num("query_trace_s", s.query_trace_s)
      .num("ctor_s", s.ctor_s)
      .num("total_s", s.total_s);
  return j.str();
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Serves world `i` of the run once at 1 and once at 2 query threads
/// (alternating which goes first, so drift on a shared host lands on
/// both), building it afresh for each serve so no second copy of the
/// world is alive during a serve; prints one "serve" record per serve
/// and merges the 1-thread serve's latency histogram into `pooled`.
void serve_world(const Options& o, std::size_t i, sim::LatencyHistogram& pooled) {
  const std::uint64_t seed = world_seed(o.seed, i);
  const std::size_t first = i % 2 == 0 ? 1 : 2;
  for (const std::size_t threads : {first, 3 - first}) {
    SetupTimes setup;
    World w = build_world(o, seed, setup);
    const Served s = serve(o, seed, std::move(w), threads);
    setup.ctor_s = s.ctor_s;
    setup.total_s += s.ctor_s;
    if (threads == 1) pooled.merge(s.report.stats.total().latency);
    JsonLine("serve")
        .count("world", i)
        .count("threads", threads)
        .num("run_s", s.run_s)
        .raw("aggregate", aggregate_json(s.report, o.queries))
        .raw("setup", setup_json(setup))
        .print();
  }
}

// --- traced layer probes -----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[i];
}

/// Probe inputs: the first kProbeQueries stream queries, each with a
/// live source drawn the way ServingWorld draws it.
constexpr std::size_t kProbeQueries = 2000;
constexpr std::size_t kProbePeers = 200;
constexpr int kRepeats = 5;

struct ProbeQuery {
  std::vector<sim::TermId> terms;
  sim::NodeId source = 0;
};

/// The traced run: world 0 of the run seed, served at 1 and 2 threads,
/// then each layer's public calls timed on the same world and stream.
void trace_layers(const Options& o) {
  const std::uint64_t seed = world_seed(o.seed, 0);
  SetupTimes setup;
  World w = build_world(o, seed, setup);
  const Served a = serve(o, seed, w, 1);
  setup.ctor_s = a.ctor_s;
  const Served b = serve(o, seed, w, 2);

  // The world in its t = 0 serving state: the steady-state offline set
  // tombstoned, exactly as the ServingWorld constructor leaves it.
  const sim::ServingConfig cfg = serving_config(o, seed, 1);
  const std::size_t n = w.graph.num_nodes();
  overlay::ChurnProcess churn(n, cfg.churn);
  const std::vector<bool> online = churn.online();
  {
    std::vector<sim::NodeId> leaves;
    for (sim::NodeId v = 0; v < n; ++v) {
      if (!online[v]) leaves.push_back(v);
    }
    w.store.apply_membership({}, leaves);
  }

  std::vector<ProbeQuery> probes;
  for (std::size_t i = 0; i < w.queries.size() && probes.size() < kProbeQueries; ++i) {
    if (w.queries[i].terms.empty()) continue;
    util::Rng rng(util::mix64(cfg.seed ^ (0x9E1ULL + i)));
    sim::NodeId source = 0;
    for (int attempt = 0; attempt < 16; ++attempt) {
      source = static_cast<sim::NodeId>(rng.bounded(n));
      if (online[source]) break;
    }
    probes.push_back({w.queries[i].terms, source});
  }

  JsonLine layer("layer");
  layer.num("trace.crawl_s", setup.crawl_s)
      .num("trace.query_trace_s", setup.query_trace_s)
      .num("sim.store.build_s", setup.store_s)
      .num("overlay.topology_s", setup.topology_s)
      .num("sim.serving.ctor_s", setup.ctor_s)
      .num("run1_s", a.run_s)
      .num("run2_s", b.run_s);

  // DHT: construction + full publish, as ServingWorld::run() and every
  // compaction do it.
  auto t = Clock::now();
  sim::ChordDht dht(n, util::mix64(cfg.seed ^ 0xD47ULL));
  const std::uint64_t publish_msgs = dht.publish_store(w.store);
  layer.num("sim.dht.publish_s", seconds_since(t)).count("sim.dht.publish_msgs", publish_msgs);

  {
    std::uint64_t calls = 0;
    std::uint64_t postings = 0;
    t = Clock::now();
    for (const ProbeQuery& q : probes) {
      for (const sim::TermId term : q.terms) {
        postings += dht.search_term(term, q.source, &online).postings.size();
        ++calls;
      }
    }
    const double s = seconds_since(t);
    layer.num("sim.dht.search_term_us", s * 1e6 / static_cast<double>(calls))
        .num("sim.dht.postings_per_term",
             static_cast<double>(postings) / static_cast<double>(calls));
  }

  // Engine: the workload's registry engine over the probe queries at the
  // t = 0 liveness mask, one thread, each call timed.
  std::optional<sim::AdaptiveOverlayNetwork> adaptive;
  if (o.engine == "adaptive") adaptive.emplace(w.graph, w.store, cfg.adaptive);
  sim::EngineWorld ew;
  ew.graph = &w.graph;
  ew.store = &w.store;
  ew.dht = &dht;
  ew.adaptive = adaptive ? &*adaptive : nullptr;
  ew.adaptive_params = cfg.adaptive;
  ew.timing = cfg.timing;
  const std::unique_ptr<sim::SearchEngine> engine = sim::make_engine(o.engine, ew);
  if (engine == nullptr) throw std::runtime_error("engine not constructible");
  std::vector<sim::SearchOutcome> outcomes;
  outcomes.reserve(probes.size());
  {
    sim::EngineContext ctx;
    std::vector<double> us;
    double total_s = 0.0;
    std::uint64_t probed = 0;
    std::uint64_t messages = 0;
    std::uint64_t used_dht = 0;
    std::uint64_t guided = 0;
    std::uint64_t fallback = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      util::Rng rng(util::mix64(cfg.seed ^ (0x9E1ULL + i)));
      ctx.rng = &rng;
      sim::Query query;
      query.source = probes[i].source;
      query.terms = probes[i].terms;
      query.ttl = cfg.flood_ttl;
      query.k = cfg.top_k;
      query.online = &online;
      query.trial = i;
      const auto q0 = Clock::now();
      sim::SearchOutcome out = engine->search(query, ctx);
      const double s = seconds_since(q0);
      total_s += s;
      us.push_back(s * 1e6);
      probed += out.peers_probed;
      messages += out.messages;
      if (const auto* h = sim::extras_as<sim::HybridExtras>(out)) used_dht += h->used_dht ? 1 : 0;
      if (const auto* ad = sim::extras_as<sim::AdaptiveExtras>(out)) {
        guided += ad->guided_forwards;
        fallback += ad->fallback_forwards;
      }
      outcomes.push_back(std::move(out));
    }
    std::sort(us.begin(), us.end());
    const auto nq = static_cast<double>(probes.size());
    layer.num("sim.engine.search_us_p50", quantile_sorted(us, 0.50))
        .num("sim.engine.search_us_p99", quantile_sorted(us, 0.99))
        .count("sim.engine.search_samples", probes.size())
        .num("sim.engine.search_s", total_s)
        .num("sim.engine.peers_probed_per_query", static_cast<double>(probed) / nq)
        .num("sim.engine.dup_msg_ratio",
             messages == 0 ? 0.0
                           : 1.0 - static_cast<double>(probed) /
                                       static_cast<double>(messages))
        .num("sim.engine.dht_fallback_share", static_cast<double>(used_dht) / nq)
        .num("sim.engine.guided_share",
             guided + fallback == 0
                 ? 0.0
                 : static_cast<double>(guided) / static_cast<double>(guided + fallback));
  }

  // PeerStore probes on (stream term set, uniform peer) pairs: the pairs
  // a flood frontier hands to probe_peers().
  {
    util::Rng rng(sub_seed(seed, 7));
    std::vector<sim::NodeId> peers(kProbePeers);
    for (sim::NodeId& p : peers) p = static_cast<sim::NodeId>(rng.bounded(n));
    sim::PeerStore::MatchScratch scratch;
    const double pairs = static_cast<double>(probes.size() * peers.size());
    std::uint64_t sink = 0;
    t = Clock::now();
    for (const ProbeQuery& q : probes) {
      for (const sim::NodeId p : peers) sink += w.store.match(p, q.terms, scratch).size();
    }
    layer.num("sim.store.match_ns", seconds_since(t) * 1e9 / pairs);
    t = Clock::now();
    for (const ProbeQuery& q : probes) {
      for (const sim::NodeId p : peers) sink += w.store.may_match(p, q.terms) ? 1U : 0U;
    }
    layer.num("sim.store.may_match_ns", seconds_since(t) * 1e9 / pairs);
    t = Clock::now();
    for (const ProbeQuery& q : probes) {
      for (const sim::NodeId p : peers) sink += w.store.match_scored(p, q.terms, scratch).size();
    }
    layer.num("sim.store.match_scored_ns", seconds_since(t) * 1e9 / pairs);
    // Printed so the compiler cannot drop the timed loops; run.py ignores it.
    layer.count("probe_sink", sink);
  }

  // Result cache: prime every found probe result (with the holders the
  // serving loop would register), then peek every probe from its source.
  {
    std::vector<std::pair<std::uint64_t, sim::NodeId>> holder_index;
    for (sim::NodeId p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < w.store.object_count(p); ++i) {
        holder_index.emplace_back(w.store.object_id(p, i), p);
      }
    }
    std::sort(holder_index.begin(), holder_index.end());
    std::vector<std::vector<sim::NodeId>> holders(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      for (const std::uint64_t id : outcomes[i].hits) {
        auto it = std::lower_bound(holder_index.begin(), holder_index.end(),
                                   std::make_pair(id, sim::NodeId{0}));
        for (; it != holder_index.end() && it->first == id && holders[i].size() < 8; ++it) {
          holders[i].push_back(it->second);
        }
        if (holders[i].size() >= 8) break;
      }
    }
    sim::ResultCacheParams cp = cfg.cache;
    cp.flood_ttl = cfg.flood_ttl;
    sim::CachingSearchNetwork cache(w.graph, w.store, cp);
    std::size_t primes = 0;
    t = Clock::now();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].success) continue;
      ++primes;
      if (cfg.top_k != 0) {
        cache.prime_ranked(probes[i].source, probes[i].terms, outcomes[i].top_k,
                           cfg.top_k, cfg.min_score, holders[i]);
      } else {
        cache.prime(probes[i].source, probes[i].terms, outcomes[i].hits, holders[i]);
      }
    }
    layer.num("sim.cache.prime_ns",
              primes == 0 ? 0.0 : seconds_since(t) * 1e9 / static_cast<double>(primes));
    std::uint64_t probe_msgs = 0;
    std::uint64_t hits = 0;
    t = Clock::now();
    for (const ProbeQuery& q : probes) {
      sim::NodeId hit_peer = q.source;
      const bool hit = cfg.top_k != 0
                           ? cache.peek_routed_ranked(q.source, q.terms, cfg.top_k,
                                                      cfg.min_score, probe_msgs,
                                                      hit_peer) != nullptr
                           : cache.peek_routed(q.source, q.terms, probe_msgs,
                                               hit_peer) != nullptr;
      hits += hit ? 1 : 0;
    }
    layer.num("sim.cache.peek_routed_ns",
              seconds_since(t) * 1e9 / static_cast<double>(probes.size()));
    layer.count("probe_sink_cache", hits + probe_msgs);  // as probe_sink
  }

  // PeerStore::compact at the workload's delta threshold: content churn
  // cloned from random base objects, as ServingWorld lands it.
  {
    std::vector<double> secs;
    for (int r = 0; r < kRepeats; ++r) {
      sim::PeerStore store = w.store;
      util::Rng rng(sub_seed(seed, 8 + static_cast<std::uint64_t>(r)));
      std::uint64_t next_id = 1ULL << 62;
      while (store.delta_postings() < o.compact_delta) {
        const auto p = static_cast<sim::NodeId>(rng.bounded(n));
        if (store.object_count(p) == 0) continue;
        const auto terms = store.object_terms(p, rng.bounded(store.object_count(p)));
        const auto to = static_cast<sim::NodeId>(rng.bounded(n));
        store.add_object_delta(to, next_id++, {terms.begin(), terms.end()});
      }
      t = Clock::now();
      store.compact(1);
      secs.push_back(seconds_since(t));
    }
    layer.num("sim.store.compact_s", median(secs));
  }

  // Graph::apply_delta: successive re-freeze batches driven by the
  // workload's churn stream, built as ServingWorld::maybe_refreeze does.
  {
    std::vector<double> ms;
    overlay::Graph graph = w.graph;
    std::vector<bool> live = online;
    std::vector<bool> at_refreeze = online;
    std::size_t flips = 0;
    util::Rng rng(sub_seed(seed, 9));
    for (double now = cfg.window_s; ms.size() < static_cast<std::size_t>(kRepeats);
         now += cfg.window_s) {
      for (const overlay::MembershipEvent& ev : churn.drain_events(now)) {
        live[ev.node] = ev.join;
        ++flips;
      }
      if (flips < cfg.refreeze_batch) continue;
      std::vector<std::pair<sim::NodeId, sim::NodeId>> removes;
      std::vector<std::pair<sim::NodeId, sim::NodeId>> adds;
      for (sim::NodeId v = 0; v < n; ++v) {
        if (at_refreeze[v] == live[v]) continue;
        if (!live[v]) {
          for (const sim::NodeId nbr : graph.neighbors(v)) removes.emplace_back(v, nbr);
        } else {
          for (std::size_t k = 0; k < cfg.attach_degree; ++k) {
            for (int attempt = 0; attempt < 32; ++attempt) {
              const auto u = static_cast<sim::NodeId>(rng.bounded(n));
              if (u == v || !live[u] || graph.has_edge(v, u)) continue;
              adds.emplace_back(v, u);
              break;
            }
          }
        }
      }
      t = Clock::now();
      (void)graph.apply_delta(removes, adds);
      ms.push_back(seconds_since(t) * 1e3);
      at_refreeze = live;
      flips = 0;
    }
    layer.num("overlay.apply_delta_ms", median(ms));
  }

  // Adaptive refresh: one maintenance window of the stream observed, then
  // every synopsis re-ranked.
  {
    sim::AdaptiveOverlayNetwork net(w.graph, w.store, cfg.adaptive);
    const auto per_window = static_cast<std::size_t>(
        std::max(1.0, o.qps * cfg.window_s));
    std::vector<double> ms;
    std::size_t qi = 0;
    for (int r = 0; r < kRepeats && qi < w.queries.size(); ++r) {
      t = Clock::now();
      for (std::size_t j = 0; j < per_window && qi < w.queries.size(); ++j, ++qi) {
        net.observe_query(w.queries[qi].terms);
      }
      (void)net.refresh_synopses();
      ms.push_back(seconds_since(t) * 1e3);
    }
    layer.num("sim.adaptive.refresh_ms", median(ms));
  }

  layer.raw("aggregate1", aggregate_json(a.report, o.queries))
      .raw("aggregate2", aggregate_json(b.report, o.queries));
  layer.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  try {
    if (o.mode == "trace") {
      trace_layers(o);
      return 0;
    }
    // At least --worlds worlds (the simulated metrics and the peak RSS
    // read exactly those), then more while the next one still fits in
    // the time budget.
    const auto start = Clock::now();
    sim::LatencyHistogram pooled;
    for (std::size_t i = 0;; ++i) {
      const auto w0 = Clock::now();
      serve_world(o, i, pooled);
      if (i + 1 == o.worlds) {
        JsonLine("pooled")
            .num("peak_rss_mib", peak_rss_mib())
            .num("p50_s", pooled.quantile(0.50))
            .num("p99_s", pooled.quantile(0.99))
            .print();
      }
      if (i + 1 >= o.worlds && seconds_since(start) + seconds_since(w0) > o.seconds) {
        break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
