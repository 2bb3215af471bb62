// lsd_bench: the serving benchmark. It trains the paper's full LSD system
// (the ConfigForDomain learner roster, the domain constraints and the
// synonym dictionary) on sources 0-2 of a generated domain, serves it
// through a MatchService behind a NetServer on loopback, drives one
// workload's traffic from client threads in this process, and checks the
// answers against a reference replica.
//
//   lsd_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--git-commit SHA] [--quick]
//
// stdout ends with two JSON lines: a run record (host, workload settings,
// sample counts) and the result object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set; with
// --trace 1 they are the per-layer set, and --trace-out writes the spans
// as Chrome trace JSON. The exit code is 1 when an answer differs from
// the reference, a request fails, or the transport loses one.
//
// Layers are measured from outside the program: spans around calls to
// public functions, diffs of the metrics the program already records, and
// a serial "layer walk" that replays a sample of the payloads through the
// wire codec, the lenient parsers, PredictSource and MatchWithPredictions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_trace.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/pred_cache.h"
#include "common/strings.h"
#include "core/lsd_system.h"
#include "datagen/domains.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/match_service.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

#ifndef LSD_BENCH_BUILD_TYPE
#define LSD_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lsd;
using benchtrace::SpanRecorder;
using Clock = std::chrono::steady_clock;

// The model: sources 0-2 of the domain realized at seed 7, 60 listings
// each. Request payloads are a held-out source of the same domain realized
// with fresh data seeds: the same schema with new data, the paper's
// resampling protocol.
constexpr uint64_t kModelSeed = 7;
constexpr size_t kListings = 60;
constexpr size_t kSources = 5;
constexpr size_t kTrainSources = 3;

// Service settings shared by every workload.
constexpr size_t kWorkers = 2;
constexpr size_t kQueueDepth = 32;
constexpr size_t kCacheEntries = 65536;
constexpr size_t kGoldenRequests = 2;

/// Set-ups per run; set-up time is their median. The last one serves.
constexpr size_t kSetups = 3;
/// Untimed traffic before the timed phase, so caches fill and lazy set-up
/// finishes.
constexpr double kWarmupSeconds = 2.0;

/// Closed-loop client threads, one connection each: one per worker. With
/// more clients a request waits either a whole service time or none, and
/// the median sits on that jump.
constexpr size_t kClients = kWorkers;

struct WorkloadSpec {
  const char* name;
  const char* domain;
  /// Listings per request payload (the model always trains on kListings).
  size_t listings;
  /// Distinct payloads, each from its own data seed. Each client walks the
  /// pool cyclically from its own offset, so a payload recurs only after
  /// the whole pool has been sent.
  size_t pool;
  /// Payloads whose answers are checked against the reference replica.
  size_t verify;
  /// Payloads replayed by the traced layer walk.
  size_t walk;
  /// Latency objective for slo_met_pct.
  double slo_ms;
  /// Mixed into the data seeds, so workloads sharing a domain draw
  /// different payloads.
  uint64_t seed_offset;
  /// Golden-gated Reload() calls spread over the timed phase.
  size_t reloads;
};

// Why these four (see README.md):
// - cold_stream's working set is ~25x the prediction cache, so every
//   request pays for the learners.
// - warm_repeat's fits in the cache, so the uncacheable layers dominate.
// - search_heavy's 66-tag schema makes A* search a large share of each
//   request. Its payloads carry 40 listings, not 60: A* cost follows the
//   tags, not the listings, so its share grows, and a 20 s run answers
//   the 100 requests a p90 needs.
// - reload_under_load runs model builds beside live matching.
// Every workload is a closed loop. On the shared reference host, an open
// loop at a quarter of capacity left the CPUs idle between requests, and
// its latency spread 21% across seeds where the same traffic in a closed
// loop spread 4%.
constexpr WorkloadSpec kWorkloads[] = {
    {"cold_stream", "real-estate-1", 60, 256, 64, 16, 200.0, 0, 0},
    {"warm_repeat", "real-estate-1", 60, 8, 8, 8, 200.0, 0, 0},
    {"search_heavy", "real-estate-2", 40, 32, 16, 4, 1000.0, 0, 0},
    {"reload_under_load", "real-estate-1", 60, 256, 64, 16, 200.0, 0x5eed, 4},
};

const std::vector<std::string>& LearnerRoster() {
  static const std::vector<std::string> roster = {
      kNameMatcherName, kContentMatcherName, kNaiveBayesName,
      kXmlLearnerName, kCountyRecognizerName};
  return roster;
}

// ---------------------------------------------------------------- flags

struct Flags {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string git_commit = "unknown";
  bool quick = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "lsd_bench: %s\nusage: lsd_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--git-commit "
               "SHA] [--quick]\n",
               problem.c_str());
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      flags.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : kWorkloads) {
        if (value == spec.name) flags.workload = &spec;
      }
      if (flags.workload == nullptr) Usage("unknown workload " + value);
    } else if (flag == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        Usage("--seed expects a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags.seconds > 0.0) ||
          flags.seconds > 600.0) {
        Usage("--seconds expects a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      flags.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      flags.trace_out = value;
    } else if (flag == "--git-commit") {
      flags.git_commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (flags.workload == nullptr || !have_seed || flags.seconds <= 0.0 ||
      !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return flags;
}

// -------------------------------------------------------------- helpers

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

size_t CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* CompilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// A JSON number with every digit the measurement has.
std::string Num(double value) { return StrFormat("%.17g", value); }

// ------------------------------------------------------------- payloads

struct Payload {
  std::string dtd_text;
  std::string xml_text;
  Mapping gold;
};

Payload ToPayload(const GeneratedSource& generated) {
  Payload payload;
  payload.dtd_text = generated.source.schema.ToString();
  XmlNode wrapper("listings");
  for (const XmlDocument& listing : generated.source.listings) {
    wrapper.children.push_back(listing.root);
  }
  payload.xml_text = WriteXml(wrapper);
  payload.gold = generated.gold;
  return payload;
}

/// Every payload is source 4 of its own data seed. Source 3's schema costs
/// 15-40% more to match, so a mix of the two splits latency into groups,
/// and the host's unequal CPUs split each group again; a percentile that
/// lands near a group boundary jumps from run to run.
constexpr size_t kPayloadSource = 4;

std::vector<Payload> BuildPool(const DomainSpec& spec,
                               const WorkloadSpec& workload, uint64_t seed) {
  std::vector<Payload> pool;
  pool.reserve(workload.pool);
  for (uint64_t r = 0; r < workload.pool; ++r) {
    uint64_t data_seed = SplitMix(SplitMix(seed ^ workload.seed_offset) + r);
    if (data_seed == 0) data_seed = 1;  // 0 would derive it from kModelSeed
    Domain domain = RealizeDomain(spec, kSources, workload.listings,
                                  kModelSeed, data_seed);
    pool.push_back(ToPayload(domain.sources[kPayloadSource]));
  }
  return pool;
}

/// Parses request text exactly as the service does with lenient parsing.
StatusOr<DataSource> ParseSource(const std::string& dtd_text,
                                 const std::string& xml_text) {
  DataSource source;
  LSD_ASSIGN_OR_RETURN(DtdParseReport dtd, ParseDtdLenient(dtd_text));
  source.schema = std::move(dtd.dtd);
  LSD_ASSIGN_OR_RETURN(XmlParseReport xml, ParseXmlLenient(xml_text));
  for (XmlNode& listing : xml.document.root.children) {
    source.listings.emplace_back(std::move(listing));
  }
  return source;
}

/// The service's response fingerprint: the mapping, then each tag's
/// full-precision scores (the format of service/match_service.cc).
std::string Fingerprint(const MatchResult& result) {
  std::string out = result.mapping.ToString();
  out += "--\n";
  for (size_t t = 0; t < result.tags.size(); ++t) {
    out += result.tags[t];
    for (double score : result.tag_predictions[t].scores) {
      out += StrFormat(" %.17g", score);
    }
    out += "\n";
  }
  return out;
}

StatusOr<std::unique_ptr<LsdSystem>> BuildSystem(const Domain& domain,
                                                 size_t num_threads) {
  LsdConfig config = ConfigForDomain(domain.name, LsdConfig());
  config.num_threads = num_threads;
  auto system =
      std::make_unique<LsdSystem>(domain.mediated, config, &domain.synonyms);
  for (auto& constraint : MakeDomainConstraints(domain)) {
    system->AddConstraint(std::move(constraint));
  }
  for (size_t s = 0; s < kTrainSources; ++s) {
    LSD_RETURN_IF_ERROR(system->AddTrainingSource(domain.sources[s].source,
                                                  domain.sources[s].gold));
  }
  LSD_RETURN_IF_ERROR(system->Train());
  return StatusOr<std::unique_ptr<LsdSystem>>(std::move(system));
}

// -------------------------------------------------------------- traffic

/// Request ids on the wire are "r<n>"; n indexes the dequeue log.
std::string WireId(uint64_t id) { return "r" + std::to_string(id); }

/// Dequeue instants, stamped by MatchServiceOptions::execute_interceptor
/// for traced requests and keyed by request id.
class DequeueLog {
 public:
  explicit DequeueLog(size_t capacity) : stamps_(capacity) {}

  void Stamp(const std::string& wire_id) {
    if (wire_id.size() < 2 || wire_id[0] != 'r') return;
    uint64_t id = std::strtoull(wire_id.c_str() + 1, nullptr, 10);
    if (id >= stamps_.size()) return;
    stamps_[id].store(Clock::now().time_since_epoch().count(),
                      std::memory_order_relaxed);
  }

  /// False when the request was never stamped.
  bool Get(uint64_t id, Clock::time_point* when) const {
    if (id >= stamps_.size()) return false;
    int64_t ticks = stamps_[id].load(std::memory_order_relaxed);
    if (ticks == 0) return false;
    *when = Clock::time_point(Clock::duration(ticks));
    return true;
  }

 private:
  std::vector<std::atomic<int64_t>> stamps_;
};

/// Every answer the clients received, per payload: the first answer is
/// kept and each later one must equal it byte for byte.
class AnswerBook {
 public:
  explicit AnswerBook(size_t pool) : fingerprints_(pool) {}

  /// False when the answer is empty or differs from an earlier one.
  bool Record(uint32_t payload, const net::WireResponse& response) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string& fingerprint = fingerprints_[payload];
    if (fingerprint.empty()) {
      fingerprint = response.fingerprint;
      return !response.fingerprint.empty();
    }
    return fingerprint == response.fingerprint;
  }

  /// Empty when the payload was never answered. Call after every client
  /// thread has joined.
  const std::string& fingerprint(size_t payload) const {
    return fingerprints_[payload];
  }

 private:
  std::mutex mu_;
  std::vector<std::string> fingerprints_;  // guarded by mu_ while clients run
};

struct Request {
  uint64_t id = 0;
  uint32_t payload = 0;
  uint32_t client = 0;
  Clock::time_point sent;
  Clock::time_point received;
  net::WireOutcome outcome = net::WireOutcome::kFailed;
  bool transport_error = false;
  /// Span id of this request's net.call span (0 when not traced).
  uint64_t call_span = 0;

  bool answered() const {
    return !transport_error && (outcome == net::WireOutcome::kOk ||
                                outcome == net::WireOutcome::kDegraded);
  }
};

struct PhaseResult {
  std::vector<Request> requests;
  Clock::time_point start;
  Clock::time_point end;  // the last receipt
};

/// What the client threads share during a phase.
struct Traffic {
  /// Clients walk it cyclically, each from its own offset.
  const std::vector<Payload>& pool;
  uint16_t port;
  AnswerBook& answers;
  std::atomic<uint64_t>& next_id;
  std::atomic<size_t>& mismatches;
  /// Null in untraced runs.
  SpanRecorder* recorder;
};

void Send(net::NetClient& client, Request& request, Traffic& traffic) {
  const Payload& payload = traffic.pool[request.payload];
  net::WireRequest wire;
  wire.id = WireId(request.id);
  wire.dtd_text = payload.dtd_text;
  wire.xml_text = payload.xml_text;
  request.sent = Clock::now();
  StatusOr<net::WireResponse> response = client.Call(wire);
  request.received = Clock::now();
  if (!response.ok()) {
    request.transport_error = true;
    std::fprintf(stderr, "lsd_bench: transport error on %s: %s\n",
                 wire.id.c_str(), response.status().ToString().c_str());
    return;
  }
  request.outcome = response->outcome;
  if (request.answered() &&
      !traffic.answers.Record(request.payload, *response)) {
    traffic.mismatches.fetch_add(1);
  }
  if (traffic.recorder != nullptr) {
    request.call_span =
        traffic.recorder->Add("net.call", 0, request.id, request.client,
                              request.sent, request.received);
  }
}

net::NetClientOptions ClientOptions(uint16_t port, size_t client) {
  net::NetClientOptions options;
  options.port = port;
  options.backoff_seed = client + 1;
  return options;
}

/// Runs one closed-loop phase of the workload's traffic for `seconds`.
/// `alongside` runs on the calling thread while the clients send.
PhaseResult RunPhase(Traffic& traffic, double seconds, size_t cycle_offset,
                     const std::function<void(Clock::time_point)>& alongside) {
  const size_t pool = traffic.pool.size();
  PhaseResult phase;
  std::vector<std::vector<Request>> per_client(kClients);
  std::vector<std::thread> threads;
  phase.start = Clock::now();
  const Clock::time_point stop =
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient client(ClientOptions(traffic.port, c));
      size_t position = cycle_offset + c * (pool / kClients);
      while (Clock::now() < stop) {
        Request request;
        request.id = traffic.next_id.fetch_add(1);
        request.payload = static_cast<uint32_t>(position++ % pool);
        request.client = static_cast<uint32_t>(c);
        Send(client, request, traffic);
        per_client[c].push_back(request);
      }
    });
  }
  if (alongside) alongside(phase.start);
  for (std::thread& thread : threads) thread.join();

  phase.end = phase.start;
  for (std::vector<Request>& requests : per_client) {
    for (Request& request : requests) {
      phase.end = std::max(phase.end, request.received);
      phase.requests.push_back(request);
    }
  }
  std::sort(phase.requests.begin(), phase.requests.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
  return phase;
}

/// The payloads checked against the reference: the first ones each
/// client sends in the timed phase, so the set depends only on the seed.
std::vector<uint32_t> VerifySample(size_t pool, size_t count) {
  std::vector<uint32_t> sample;
  const size_t stride = pool / kClients;
  const size_t per_client = std::max<size_t>(1, count / kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t k = 0; k < per_client && k < stride; ++k) {
      sample.push_back(static_cast<uint32_t>(c * stride + k));
    }
  }
  return sample;
}

// ----------------------------------------------------------- layer walk

struct WalkResult {
  size_t payloads = 0;
  double request_codec_ms = 0.0;
  double parse_ms = 0.0;
  double predict_self_ms = 0.0;
  double match_self_ms = 0.0;
  double response_codec_ms = 0.0;
};

uint64_t HistogramDelta(const MetricsSnapshot& before,
                        const MetricsSnapshot& after,
                        const std::string& name) {
  return after.HistogramSumOf(name) - before.HistogramSumOf(name);
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  return after.CounterOf(name) - before.CounterOf(name);
}

/// Serial replay of `sample` on a spare replica configured like a serving
/// one (one thread, its own cache of the service's size). A first pass
/// warms the cache the way the service's traffic did — a working set that
/// fits stays warm, one that does not is evicted before reuse — and the
/// second pass is timed call by call. Learner, convert and search time
/// come from the registry histograms over the timed pass, so the "self"
/// times are what the public calls spend outside those timers.
StatusOr<WalkResult> LayerWalk(const Domain& domain,
                               const std::vector<Payload>& pool,
                               const std::vector<uint32_t>& sample,
                               const AnswerBook& answers,
                               SpanRecorder* recorder, uint64_t first_id) {
  LSD_ASSIGN_OR_RETURN(std::unique_ptr<LsdSystem> system,
                       BuildSystem(domain, /*num_threads=*/1));
  system->SetPredictionCache(std::make_shared<PredCache>(kCacheEntries));
  for (uint32_t p : sample) {
    LSD_ASSIGN_OR_RETURN(DataSource source,
                         ParseSource(pool[p].dtd_text, pool[p].xml_text));
    LSD_RETURN_IF_ERROR(system->PredictSource(source).status());
  }

  WalkResult walk;
  walk.payloads = sample.size();
  double predict_ms = 0.0;
  double match_ms = 0.0;
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  for (size_t k = 0; k < sample.size(); ++k) {
    const uint32_t p = sample[k];
    const uint64_t id = first_id + k;
    net::WireRequest request;
    request.id = WireId(id);
    request.dtd_text = pool[p].dtd_text;
    request.xml_text = pool[p].xml_text;

    Clock::time_point t0 = Clock::now();
    std::string frame = net::EncodeRequestFrame(request);
    net::FrameDecoder decoder;
    decoder.Feed(frame);
    net::DecodedFrame decoded;
    LSD_ASSIGN_OR_RETURN(bool complete, decoder.Next(&decoded));
    if (!complete) return Status::Internal("walk: request frame incomplete");
    LSD_ASSIGN_OR_RETURN(net::WireRequest received,
                         net::DecodeRequestPayload(decoded.payload));
    Clock::time_point t1 = Clock::now();
    LSD_ASSIGN_OR_RETURN(DataSource source,
                         ParseSource(received.dtd_text, received.xml_text));
    Clock::time_point t2 = Clock::now();
    LSD_ASSIGN_OR_RETURN(SourcePredictions predictions,
                         system->PredictSource(source));
    Clock::time_point t3 = Clock::now();
    LSD_ASSIGN_OR_RETURN(MatchResult result,
                         system->MatchWithPredictions(predictions, source));
    Clock::time_point t4 = Clock::now();
    net::WireResponse response;
    response.id = received.id;
    response.outcome = result.report.degraded() ? net::WireOutcome::kDegraded
                                                : net::WireOutcome::kOk;
    response.mapping = result.mapping.ToString();
    response.fingerprint = Fingerprint(result);
    std::string response_frame = net::EncodeBoundedResponseFrame(response);
    LSD_ASSIGN_OR_RETURN(net::DecodedFrame response_decoded,
                         net::DecodeFrame(response_frame));
    LSD_ASSIGN_OR_RETURN(net::WireResponse echoed,
                         net::DecodeResponsePayload(response_decoded.payload));
    Clock::time_point t5 = Clock::now();

    if (echoed.fingerprint != answers.fingerprint(p)) {
      return Status::Internal(StrFormat(
          "walk: payload %u answered differently on the spare replica", p));
    }
    walk.request_codec_ms += Ms(t1 - t0);
    walk.parse_ms += Ms(t2 - t1);
    predict_ms += Ms(t3 - t2);
    match_ms += Ms(t4 - t3);
    walk.response_codec_ms += Ms(t5 - t4);
    if (recorder != nullptr) {
      uint64_t root = recorder->Add("walk.request", 0, id, 0, t0, t5);
      recorder->Add("net.request_codec", root, id, 0, t0, t1);
      recorder->Add("xml.parse", root, id, 0, t1, t2);
      recorder->Add("core.predict", root, id, 0, t2, t3);
      recorder->Add("core.match", root, id, 0, t3, t4);
      recorder->Add("net.response_codec", root, id, 0, t4, t5);
    }
  }
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  double learner_ms = 0.0;
  for (const std::string& learner : LearnerRoster()) {
    learner_ms +=
        HistogramDelta(before, after, "predict.micros." + learner) / 1000.0;
  }
  double convert_search_ms =
      (HistogramDelta(before, after, "match.convert_micros") +
       HistogramDelta(before, after, "match.search_micros")) /
      1000.0;
  const double n = static_cast<double>(sample.size());
  walk.request_codec_ms /= n;
  walk.parse_ms /= n;
  walk.predict_self_ms = (predict_ms - learner_ms) / n;
  walk.match_self_ms = (match_ms - convert_search_ms) / n;
  walk.response_codec_ms /= n;
  return walk;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     Num(metrics[i].value).c_str(), metrics[i].unit);
  }
  return out + "}";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Num(values[i]);
  }
  return out + "]";
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "lsd_bench: %s\n", what.c_str());
  return 1;
}

int Run(const Flags& flags) {
  const WorkloadSpec& workload = *flags.workload;
  const double warmup_seconds = flags.quick ? 0.5 : kWarmupSeconds;
  const size_t setups = flags.quick ? 1 : kSetups;
  const size_t verify_count =
      flags.quick ? std::min<size_t>(workload.verify, 8) : workload.verify;
  const size_t walk_count =
      flags.quick ? std::min<size_t>(workload.walk, 2) : workload.walk;
  const Clock::time_point epoch = Clock::now();
  // Wall time of each stage of the run, reported in the run record.
  std::vector<std::pair<const char*, double>> stages;
  Clock::time_point stage_start = epoch;
  auto end_stage = [&](const char* name) {
    Clock::time_point now = Clock::now();
    stages.emplace_back(
        name, std::chrono::duration<double>(now - stage_start).count());
    stage_start = now;
  };

  StatusOr<DomainSpec> spec = GetDomainSpec(workload.domain);
  if (!spec.ok()) return Fail(spec.status().ToString());
  const Domain domain =
      RealizeDomain(*spec, kSources, kListings, kModelSeed);
  const std::vector<Payload> pool = BuildPool(*spec, workload, flags.seed);
  end_stage("inputs");

  // ---- set-up: MatchService::Create (every replica trained, the golden
  // baseline established) plus NetServer::Create, several times.
  // Sized only when traced, so it adds nothing to untraced peak_rss_mb.
  DequeueLog dequeues(flags.trace ? 1u << 20 : 0);
  MatchService::ReplicaFactory factory = [&domain] {
    return BuildSystem(domain, /*num_threads=*/1);
  };
  MatchServiceOptions options;
  options.workers = kWorkers;
  options.max_queue_depth = kQueueDepth;
  options.pred_cache_entries = kCacheEntries;
  options.lenient_parse = true;
  options.default_deadline_ms = -1;
  for (size_t g = 0; g < kGoldenRequests; ++g) {
    ServiceRequest golden;
    golden.id = StrFormat("golden-%zu", g);
    golden.dtd_text = pool[g].dtd_text;
    golden.xml_text = pool[g].xml_text;
    options.golden_requests.push_back(std::move(golden));
  }
  if (flags.trace) {
    options.execute_interceptor = [&dequeues](const ServiceRequest& request) {
      dequeues.Stamp(request.id);
    };
  }
  std::vector<double> setup_seconds;
  std::unique_ptr<MatchService> service;
  std::unique_ptr<net::NetServer> server;
  for (size_t k = 0; k < setups; ++k) {
    if (server) server->Stop();
    server.reset();
    service.reset();
    Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<MatchService>> created =
        MatchService::Create(factory, options);
    if (!created.ok()) return Fail(created.status().ToString());
    service = std::move(*created);
    StatusOr<std::unique_ptr<net::NetServer>> listening =
        net::NetServer::Create(service.get(), net::NetServerOptions());
    if (!listening.ok()) return Fail(listening.status().ToString());
    server = std::move(*listening);
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  end_stage("setup");

  // ---- traffic: an untimed warm-up, then the timed phase.
  std::unique_ptr<SpanRecorder> recorder;
  if (flags.trace) recorder = std::make_unique<SpanRecorder>(epoch);
  AnswerBook answers(pool.size());
  std::atomic<uint64_t> next_id{0};
  std::atomic<size_t> mismatches{0};
  Traffic traffic{pool, server->port(), answers, next_id, mismatches, nullptr};
  PhaseResult warmup =
      RunPhase(traffic, warmup_seconds, pool.size() / 2, nullptr);
  size_t warmup_bad = 0;
  for (const Request& r : warmup.requests) warmup_bad += r.answered() ? 0 : 1;
  end_stage("warmup");

  traffic.recorder = recorder.get();
  std::vector<double> reload_ms;
  size_t reload_failures = 0;
  std::function<void(Clock::time_point)> reload_loop;
  if (workload.reloads > 0) reload_loop = [&](Clock::time_point start) {
    for (size_t k = 1; k <= workload.reloads; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          flags.seconds * static_cast<double>(k) /
                          static_cast<double>(workload.reloads + 1))));
      MatchService::ReloadOptions reload;
      reload.factory = factory;
      reload.require_identical = true;
      Clock::time_point t0 = Clock::now();
      StatusOr<MatchService::ReloadReport> report = service->Reload(reload);
      Clock::time_point t1 = Clock::now();
      reload_ms.push_back(Ms(t1 - t0));
      if (recorder) recorder->Add("service.reload", 0, 0, 0, t0, t1);
      if (!report.ok() || !report->swapped) {
        ++reload_failures;
        std::fprintf(stderr, "lsd_bench: reload %zu refused: %s\n", k,
                     report.ok() ? report->rejection.c_str()
                                 : report.status().ToString().c_str());
      }
    }
  };
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  PhaseResult timed = RunPhase(traffic, flags.seconds, 0, reload_loop);
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  // ---- accuracy: the domain's held-out sources (the ones the model did
  // not train on, the paper's protocol), served once after the timed
  // phase. They do not depend on --seed and matching is deterministic, so
  // accuracy_pct reads the same on every run.
  std::vector<Payload> held_out;
  std::vector<std::string> held_out_answers;
  {
    net::NetClient client(ClientOptions(server->port(), 0));
    for (size_t s = kTrainSources; s < kSources; ++s) {
      held_out.push_back(ToPayload(domain.sources[s]));
      net::WireRequest wire;
      wire.id = StrFormat("held-out-%zu", s);
      wire.dtd_text = held_out.back().dtd_text;
      wire.xml_text = held_out.back().xml_text;
      StatusOr<net::WireResponse> response = client.Call(wire);
      const bool served =
          response.ok() && (response->outcome == net::WireOutcome::kOk ||
                            response->outcome == net::WireOutcome::kDegraded);
      held_out_answers.push_back(served ? response->fingerprint : "");
    }
  }
  server->Stop();
  service->Stop();
  end_stage("timed");

  // ---- end-to-end numbers from the timed phase.
  size_t answered = 0, shed = 0, failed = 0, transport_errors = 0;
  size_t within_slo = 0;
  std::vector<double> latency_ms, call_ms, dequeue_delay_ms;
  for (Request& r : timed.requests) {
    if (r.transport_error) {
      ++transport_errors;
      continue;
    }
    if (r.outcome == net::WireOutcome::kShed) ++shed;
    if (r.outcome == net::WireOutcome::kFailed) ++failed;
    if (!r.answered()) continue;
    ++answered;
    double latency = Ms(r.received - r.sent);
    latency_ms.push_back(latency);
    if (latency <= workload.slo_ms) ++within_slo;
    if (!recorder) continue;
    Clock::time_point dequeued;
    if (!dequeues.Get(r.id, &dequeued)) continue;
    call_ms.push_back(Ms(r.received - r.sent));
    dequeue_delay_ms.push_back(Ms(dequeued - r.sent));
    recorder->Add("service.queue", r.call_span, r.id, r.client, r.sent,
                  dequeued);
    recorder->Add("service.execute", r.call_span, r.id, r.client, dequeued,
                  r.received);
  }
  const size_t sent = timed.requests.size();
  const double wall_s =
      std::chrono::duration<double>(timed.end - timed.start).count();

  // ---- correctness: the sample and the held-out sources against a
  // reference replica, cache off.
  std::vector<uint32_t> sample =
      VerifySample(pool.size(), verify_count);
  std::vector<std::string> problems;
  double accuracy_sum = 0.0;
  {
    StatusOr<std::unique_ptr<LsdSystem>> reference =
        BuildSystem(domain, std::max<size_t>(1, CountCpus()));
    if (!reference.ok()) return Fail(reference.status().ToString());
    // The reference's answer when it equals the served fingerprint.
    auto check = [&](const Payload& payload,
                     const std::string& fingerprint) -> StatusOr<MatchResult> {
      if (fingerprint.empty()) return Status::Internal("never answered");
      LSD_ASSIGN_OR_RETURN(DataSource source,
                           ParseSource(payload.dtd_text, payload.xml_text));
      LSD_ASSIGN_OR_RETURN(MatchResult expected,
                           (*reference)->MatchSource(source));
      if (Fingerprint(expected) != fingerprint) {
        return Status::Internal("served answer differs from the reference");
      }
      return expected;
    };
    for (uint32_t p : sample) {
      StatusOr<MatchResult> checked = check(pool[p], answers.fingerprint(p));
      if (!checked.ok()) {
        problems.push_back(StrFormat("payload %u: %s", p,
                                     checked.status().ToString().c_str()));
      }
    }
    for (size_t h = 0; h < held_out.size(); ++h) {
      StatusOr<MatchResult> checked = check(held_out[h], held_out_answers[h]);
      if (!checked.ok()) {
        problems.push_back(StrFormat("held-out source %zu: %s",
                                     kTrainSources + h,
                                     checked.status().ToString().c_str()));
        continue;
      }
      accuracy_sum += MatchingAccuracy(checked->mapping, held_out[h].gold);
    }
  }
  end_stage("verify");
  if (mismatches.load() > 0) {
    problems.push_back(StrFormat(
        "%zu answers differed from an earlier answer to the same payload",
        mismatches.load()));
  }
  if (failed + transport_errors + warmup_bad > 0) {
    problems.push_back(StrFormat(
        "%zu failed, %zu transport errors, %zu unanswered in warm-up", failed,
        transport_errors, warmup_bad));
  }
  if (reload_failures > 0) {
    problems.push_back(StrFormat("%zu reloads refused", reload_failures));
  }
  if (answered == 0) problems.push_back("no request was answered");

  // ---- per-layer numbers (traced runs).
  std::vector<Metric> metrics;
  WalkResult walk;
  if (flags.trace && problems.empty()) {
    StatusOr<WalkResult> walked =
        LayerWalk(domain, pool,
                  std::vector<uint32_t>(sample.begin(),
                                        sample.begin() +
                                            std::min(walk_count,
                                                     sample.size())),
                  answers, recorder.get(), next_id.load());
    if (!walked.ok()) return Fail(walked.status().ToString());
    walk = *walked;
    end_stage("walk");
  }
  if (flags.trace) {
    // Every match the service ran in the timed phase: answered requests
    // plus the reloads' shadow evaluations of the golden set.
    const double matches = static_cast<double>(
        answered + reload_ms.size() * kGoldenRequests);
    auto per_match_ms = [&](const std::string& histogram) {
      return HistogramDelta(before, after, histogram) / 1000.0 / matches;
    };
    auto per_match = [&](const std::string& counter) {
      return static_cast<double>(CounterDelta(before, after, counter)) /
             matches;
    };
    const double hits =
        static_cast<double>(CounterDelta(before, after, "pred_cache.hits"));
    const double lookups =
        hits +
        static_cast<double>(CounterDelta(before, after, "pred_cache.misses"));
    const double queue_base = walk.request_codec_ms;
    std::vector<double> queue_wait_ms;
    for (double d : dequeue_delay_ms) queue_wait_ms.push_back(d - queue_base);

    double learners_ms = 0.0;
    std::vector<Metric> learner_metrics;
    for (const std::string& learner : LearnerRoster()) {
      double ms = per_match_ms("predict.micros." + learner);
      learners_ms += ms;
      learner_metrics.push_back({"learners." + learner + "_ms", ms, "ms"});
    }
    const double convert_ms = per_match_ms("match.convert_micros");
    const double search_ms = per_match_ms("match.search_micros");
    const double attributed =
        Mean(dequeue_delay_ms) + walk.parse_ms + walk.predict_self_ms +
        learners_ms + convert_ms + search_ms + walk.match_self_ms +
        walk.response_codec_ms;

    metrics = {
        {"net.call_ms", Mean(call_ms), "ms"},
        {"net.request_codec_ms", walk.request_codec_ms, "ms"},
        {"net.response_codec_ms", walk.response_codec_ms, "ms"},
        {"net.bytes_per_request",
         static_cast<double>(CounterDelta(before, after, "net.bytes_read") +
                             CounterDelta(before, after, "net.bytes_written")) /
             static_cast<double>(std::max<size_t>(1, sent)),
         "B"},
        {"service.queue_wait_p50_ms", Percentile(queue_wait_ms, 0.5), "ms"},
        {"service.queue_wait_p90_ms", Percentile(queue_wait_ms, 0.9), "ms"},
        {"xml.parse_ms", walk.parse_ms, "ms"},
        {"core.predict_self_ms", walk.predict_self_ms, "ms"},
    };
    metrics.insert(metrics.end(), learner_metrics.begin(),
                   learner_metrics.end());
    std::vector<Metric> rest = {
        {"learners.instances_predicted", per_match("predict.instances"),
         "count"},
        {"pred_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
         "fraction"},
        {"pred_cache.lookups", lookups / matches, "count"},
        {"ml.convert_ms", convert_ms, "ms"},
        {"ml.meta_combines", per_match("meta.combines"), "count"},
        {"constraints.search_ms", search_ms, "ms"},
        {"constraints.expanded", per_match("astar.expanded"), "count"},
        {"core.match_self_ms", walk.match_self_ms, "ms"},
        {"unattributed_ms", Mean(call_ms) - attributed, "ms"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  } else {
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"throughput_rps", static_cast<double>(answered) / wall_s, "1/s"},
        // The mean, not the median: a request runs on whichever CPU picks
        // it up, and the CPUs of a shared host run at different speeds, so
        // latencies fall into a fast and a slow cluster whose shares vary
        // from run to run. The median jumps between the clusters; the mean
        // moves in proportion.
        {"latency_mean_ms", Mean(latency_ms), "ms"},
        {"latency_p90_ms", Percentile(latency_ms, 0.9), "ms"},
        {"slo_met_pct",
         100.0 * static_cast<double>(within_slo) /
             static_cast<double>(std::max<size_t>(1, sent)),
         "%"},
        {"accuracy_pct",
         100.0 * accuracy_sum /
             static_cast<double>(held_out.size()),
         "%"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  }

  if (recorder && !flags.trace_out.empty()) {
    Status written =
        WriteStringToFile(flags.trace_out, recorder->ToChromeJson());
    if (!written.ok()) return Fail(written.ToString());
  }

  std::printf(
      "lsd_bench %s: %s, pool %zu, %zu sent in %.2f s, %zu answered, %zu "
      "shed, %zu failed, %zu transport errors, %zu sampled payloads and %zu "
      "held-out sources checked against the reference\n",
      workload.name, workload.domain, pool.size(), sent, wall_s, answered,
      shed, failed, transport_errors, sample.size(), held_out.size());
  for (const std::string& problem : problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  std::string stage_json = "{";
  for (size_t i = 0; i < stages.size(); ++i) {
    stage_json += StrFormat("%s\"%s\": %s", i == 0 ? "" : ", ",
                            stages[i].first, Num(stages[i].second).c_str());
  }
  stage_json += "}";
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_commit\": "
      "\"%s\", \"seed\": %llu}, \"workload\": {\"name\": \"%s\", "
      "\"clients\": %zu, \"domain\": "
      "\"%s\", \"listings\": %zu, \"pool\": %zu, \"slo_ms\": %s, "
      "\"warmup_s\": %s, \"timed_s\": %s, \"trace\": %s, \"quick\": %s}, "
      "\"samples\": {\"latency\": %zu, \"queue_wait\": %zu, \"verified\": "
      "%zu, \"walk\": %zu, \"setups\": %zu}, \"setup_s_all\": %s, "
      "\"reload_ms\": %s, \"stage_s\": %s, \"spans\": %zu}\n",
      CountCpus(), std::thread::hardware_concurrency(), LSD_BENCH_BUILD_TYPE,
      CompilerName(), flags.git_commit.c_str(),
      static_cast<unsigned long long>(flags.seed), workload.name,
      kClients, workload.domain, workload.listings, pool.size(),
      Num(workload.slo_ms).c_str(), Num(warmup_seconds).c_str(),
      Num(flags.seconds).c_str(), flags.trace ? "true" : "false",
      flags.quick ? "true" : "false", latency_ms.size(),
      dequeue_delay_ms.size(), sample.size(),
      walk.payloads, setup_seconds.size(), NumList(setup_seconds).c_str(),
      NumList(reload_ms).c_str(), stage_json.c_str(),
      recorder ? recorder->size() : size_t{0});
  const bool correct = problems.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", sent, shed + failed + transport_errors,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(ParseFlags(argc, argv)); }
