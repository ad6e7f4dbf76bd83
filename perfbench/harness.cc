// End-to-end gesture-serving benchmark harness.
//
// Drives workflow::GestureRuntime the way a serving process does: learn
// the gesture set, open sessions, deploy every query (and composites),
// then push the generated frames for --seconds, checking every pass's
// detections against a reference. One run prints one JSON line:
//
//   --trace 0: the end-to-end metrics (setup_s, events_per_s, latency
//              percentiles, CPU per event, peak RSS, relearn-to-live,
//              recover_s);
//   --trace 1: the per-layer metrics, from spans around calls into each
//              module, probe operators on the runtime's streams, and
//              replays of the layers the runtime does not expose
//              (layers.h).
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result; see perfbench/README.md for the workloads and the
// metric map.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cep/simd.h"
#include "kinect/sensor.h"
#include "layers.h"
#include "stream/engine.h"
#include "stream/operators.h"
#include "trace.h"
#include "transform/view.h"
#include "workflow/gesture_runtime.h"
#include "workload.h"

namespace epl::perfbench {
namespace {

namespace fs = std::filesystem;
using kinect::SkeletonFrame;
using workflow::GestureRuntime;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: few sessions, one set-up.
  bool tiny = false;
  /// Self-test: drop one delivered detection before it is checked.
  bool inject_drop = false;
  /// Directory for WAL directories (inside the checkout).
  std::string work_dir = ".";
  /// Where a traced run writes its spans.
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--inject-drop") {
      args->inject_drop = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
template <typename Samples>
double Percentile(const Samples& samples, double p) {
  if (samples.empty()) return 0;
  std::vector<double> values(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::min(values.size(), std::max<size_t>(1, rank)) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

/// Every detection latency of a run, in log-spaced buckets 0.1% wide from
/// 0.1 us up: fixed memory, so keeping all of them does not grow the
/// resident set the run measures.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double us) {
    size_t bucket = 0;
    if (us > kMinUs) {
      bucket = std::min(kBuckets - 1,
                        static_cast<size_t>(std::log(us / kMinUs) / kLogGrowth));
    }
    ++counts_[bucket];
    ++total_;
  }
  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  uint64_t count() const { return total_; }

  /// The latency of rank p * count, interpolated inside its bucket.
  double Quantile(double p) const {
    if (total_ == 0) return 0;
    const double rank = p * static_cast<double>(total_);
    double below = 0;
    for (size_t bucket = 0; bucket < kBuckets; ++bucket) {
      const double n = static_cast<double>(counts_[bucket]);
      if (n > 0 && below + n >= rank) {
        const double within = std::max(0.0, rank - below) / n;
        return kMinUs * std::exp((static_cast<double>(bucket) + within) * kLogGrowth);
      }
      below += n;
    }
    return kMinUs * std::exp(static_cast<double>(kBuckets) * kLogGrowth);
  }

 private:
  static constexpr double kMinUs = 0.1;
  // ln(1.001); 21000 buckets reach past 100 s.
  static constexpr double kLogGrowth = 0.00099950033308353;
  static constexpr size_t kBuckets = 21000;

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

int64_t CpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Peak resident set of this process (VmHWM) since the last ResetPeakRss.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + std::strlen("VmHWM:"), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Starts a new peak: VmHWM drops to the current resident set.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Bytes of the regular files in `dir` whose name starts with `prefix`.
uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

/// Bytes of the newest snapshot file in `dir` (names sort by WAL seq).
uint64_t NewestSnapshotBytes(const std::string& dir) {
  std::string newest;
  uint64_t bytes = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) {
      newest = name;
      bytes = entry.file_size(ec);
    }
  }
  return bytes;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(std::move(spec)), tracer_(200000) {}

  ~Bench() { Teardown(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Runs the workload and prints the result line; returns the exit code.
  int Main();

 private:
  Status Prepare();
  /// Constructs a runtime on a fresh engine, opens every session and
  /// deploys every gesture and composite: what a serving process does
  /// before its first frame. `learn` learns the gesture set first (a cold
  /// start); otherwise the learned definitions_ are redeployed (a restart).
  /// The runtime under test (`live`) gets the real detection callbacks and,
  /// in traced runs, the stage probes. Returns the seconds it took.
  Result<double> Build(bool learn, bool live, const std::string& wal_dir,
                       std::unique_ptr<stream::StreamEngine>* engine,
                       std::unique_ptr<GestureRuntime>* runtime);
  void Teardown();
  /// A fresh directory for a WAL under the work directory.
  Result<std::string> MakeWalDir();
  /// Measurements beside the traffic, made between windows: a throwaway
  /// set-up, restart or recovery, or a relearn of the runtime under test.
  enum class Probe { kSetup, kRestart, kRecover, kRelearn };
  void RunProbe(Probe probe);
  /// Pushes windows of passes until `seconds` of traffic have elapsed,
  /// running `probes` spread evenly between the windows.
  struct PhaseResult {
    double seconds = 0;
    uint64_t frames = 0;
    int64_t cpu_ns = 0;
    double events_per_s() const { return static_cast<double>(frames) / seconds; }
  };
  PhaseResult RunPhase(double seconds, const std::vector<Probe>& probes);
  void RunPass();
  void Relearn(int session, int gesture);
  void CheckpointNow();
  void VerifyPass();
  void Check(const char* op, const Status& status);
  cep::DetectionCallback Callback(int session, int gesture);
  void OnDetection(int session, int gesture, const cep::Detection& detection);
  /// Durable: recovers a copy of the live WAL directory (the last
  /// checkpoint's snapshot plus the suffix_passes passes after it) into a
  /// fresh engine and checks the re-delivered detections.
  void Recover();
  void CheckRecovered();
  void Emit(const std::vector<Metric>& metrics);

  Args args_;
  WorkloadSpec spec_;
  GestureSet set_;
  Feed feed_;
  Reference reference_;
  std::unordered_map<std::string, int> gesture_index_;
  /// Per session: script timestamps (for the frame of a detection) and
  /// each script frame's position in the pass order.
  std::vector<std::vector<int64_t>> script_times_;
  std::vector<std::vector<size_t>> position_;

  std::unique_ptr<stream::StreamEngine> engine_;
  std::unique_ptr<GestureRuntime> runtime_;
  std::vector<core::GestureDefinition> definitions_;
  std::string wal_dir_;

  Tracer tracer_;
  int64_t pass_ = 0;
  uint64_t frames_ = 0;
  SkeletonFrame frame_;
  /// Per pass-order position: when the frame was pushed.
  std::vector<int64_t> ref_ns_;
  std::vector<std::vector<DetKey>> got_;

  // Correctness accounting.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  bool dropped_ = false;

  // Samples, over the whole measured phase.
  bool measuring_ = false;
  LatencyHistogram latency_;
  // The latencies of the current stretch of kLatencyChunk consecutive
  // detections, and every finished stretch's p99. The p99 reported is the
  // median stretch's: a cost every stretch pays moves it, while a host
  // stall, which delays the few stretches around it, does not decide it.
  // Pooled over a whole run, or over windows of 4 passes, the sharded
  // fleet's p99 moved 3x to 10x between runs with how many windows other
  // tenants stalled.
  static constexpr size_t kLatencyChunk = 1000;
  std::vector<double> chunk_us_;
  std::vector<double> chunk_p99_us_;
  double peak_rss_mb_ = 0;
  std::vector<double> composite_delay_us_;
  std::vector<int64_t> last_base_time_;
  std::vector<int64_t> last_base_ns_;
  std::vector<double> setup_s_, recover_s_, replay_records_per_s_, relearn_ms_,
      learn_ms_, deploy_ms_, checkpoint_ms_;
  uint64_t wal_bytes_ = 0;
  uint64_t wal_frames_ = 0;
  uint64_t wal_baseline_ = 0;
  uint64_t frames_since_checkpoint_ = 0;
  uint64_t snapshot_bytes_ = 0;

  // Trace capture of the merged stream (one pass) for the layer replays.
  bool capturing_ = false;
  std::vector<stream::Event> captured_;

  // Durable: the live run's detections since its last checkpoint, and
  // what a recovery re-delivered.
  bool recovering_ = false;
  std::vector<std::pair<int, DetKey>> suffix_, recovered_;
};

Status Bench::Prepare() {
  set_ = MakeGestureSet(spec_.gestures, args_.seed);
  for (size_t g = 0; g < set_.names.size(); ++g) {
    gesture_index_[set_.names[g]] = static_cast<int>(g);
  }
  gesture_index_[kCompositeName] = spec_.gestures;
  feed_ = MakeFeed(spec_, args_.seed);
  EPL_RETURN_IF_ERROR(CheckMonotonic(feed_));
  std::vector<core::GestureDefinition> definitions;
  for (int g = 0; g < spec_.gestures; ++g) {
    EPL_ASSIGN_OR_RETURN(core::GestureDefinition definition,
                         LearnGesture(set_, g));
    definitions.push_back(std::move(definition));
  }
  EPL_ASSIGN_OR_RETURN(reference_,
                       BuildReference(spec_, feed_, definitions, set_));
  size_t poses = 0, detections = 0;
  for (const core::GestureDefinition& definition : definitions) {
    poses += definition.poses.size();
  }
  for (const std::vector<DetKey>& keys : reference_.steady) {
    detections += keys.size();
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d gestures with %zu poses, %zu "
               "frames and %zu detections per pass\n",
               spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               spec_.gestures, poses, feed_.order.size(), detections);
  const size_t sessions = static_cast<size_t>(spec_.sessions);
  script_times_.resize(sessions);
  position_.resize(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    for (const SkeletonFrame& frame : feed_.scripts[s]) {
      script_times_[s].push_back(frame.timestamp);
    }
    position_[s].resize(feed_.scripts[s].size());
  }
  for (size_t k = 0; k < feed_.order.size(); ++k) {
    const auto [s, i] = feed_.order[k];
    position_[static_cast<size_t>(s)][static_cast<size_t>(i)] = k;
  }
  ref_ns_.assign(feed_.order.size(), 0);
  got_.assign(sessions, {});
  last_base_time_.assign(sessions, -1);
  last_base_ns_.assign(sessions, 0);
  return OkStatus();
}

Result<std::string> Bench::MakeWalDir() {
  std::error_code ec;
  const fs::path root = fs::path(args_.work_dir) / "wal";
  fs::create_directories(root, ec);
  std::string templ = (root / "run-XXXXXX").string();
  if (::mkdtemp(templ.data()) == nullptr) {
    return InternalError("mkdtemp failed under " + root.string());
  }
  return templ;
}

void Bench::Teardown() {
  if (runtime_ != nullptr) {
    (void)runtime_->Flush();
  }
  // The engine goes first: stopping a sharded channel may still deliver
  // into callbacks that reach through the runtime.
  engine_.reset();
  runtime_.reset();
}

cep::DetectionCallback Bench::Callback(int session, int gesture) {
  return [this, session, gesture](const cep::Detection& detection) {
    OnDetection(session, gesture, detection);
  };
}

void Bench::OnDetection(int session, int gesture,
                        const cep::Detection& detection) {
  const int64_t now = NowNs();
  tracer_.Begin(kCallback);
  const size_t s = static_cast<size_t>(session);
  const int64_t pass = detection.time / feed_.period;
  const DetKey key = MakeKey(gesture, detection, pass * feed_.period);
  if (recovering_) {
    recovered_.emplace_back(session, key);
    tracer_.End();
    return;
  }
  if (spec_.durable) suffix_.emplace_back(session, key);
  if (args_.inject_drop && !dropped_ && pass >= 1) {
    dropped_ = true;  // self-test: this detection never reaches the check
  } else {
    got_[s].push_back(key);
  }
  if (measuring_) {
    const std::vector<int64_t>& times = script_times_[s];
    const auto it = std::lower_bound(times.begin(), times.end(), key.time);
    if (it != times.end() && *it == key.time) {
      const size_t frame = static_cast<size_t>(it - times.begin());
      const double us = static_cast<double>(now - ref_ns_[position_[s][frame]]) / 1e3;
      latency_.Add(us);
      chunk_us_.push_back(us);
      if (chunk_us_.size() == kLatencyChunk) {
        chunk_p99_us_.push_back(Percentile(chunk_us_, 0.99));
        chunk_us_.clear();
      }
    }
  }
  if (tracer_.enabled()) {
    if (gesture == spec_.gestures) {
      if (last_base_time_[s] == detection.time) {
        composite_delay_us_.push_back(
            static_cast<double>(now - last_base_ns_[s]) / 1e3);
      }
    } else {
      last_base_time_[s] = detection.time;
      last_base_ns_[s] = now;
    }
  }
  tracer_.End();
}

void Bench::Check(const char* op, const Status& status) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(std::string(op) + ": " + status.ToString());
}

Result<double> Bench::Build(bool learn, bool live, const std::string& wal_dir,
                            std::unique_ptr<stream::StreamEngine>* engine_out,
                            std::unique_ptr<GestureRuntime>* runtime_out) {
  workflow::GestureRuntimeOptions options = RuntimeOptions(spec_);
  options.durability.dir = wal_dir;
  const bool probes = live && args_.trace;
  auto callback = [&](int session, int gesture) -> cep::DetectionCallback {
    if (live) return Callback(session, gesture);
    return [](const cep::Detection&) {};
  };
  const int64_t start = NowNs();
  auto engine = std::make_unique<stream::StreamEngine>();
  auto runtime = std::make_unique<GestureRuntime>(engine.get(), options);
  std::vector<core::GestureDefinition> learned;
  if (learn) {
    for (int g = 0; g < spec_.gestures; ++g) {
      EPL_ASSIGN_OR_RETURN(core::GestureDefinition definition,
                           LearnGesture(set_, g));
      learned.push_back(std::move(definition));
    }
  }
  const std::vector<core::GestureDefinition>& definitions =
      learn ? learned : definitions_;
  for (int s = 0; s < spec_.sessions; ++s) {
    const std::string user = "user" + std::to_string(s);
    if (probes) {
      // Stage-boundary probes: registering the session's streams first
      // puts a probe ahead of the kinect_t view on the raw stream and
      // ahead of the merge tap on the view; the runtime reuses the streams.
      const std::string raw = user + "/kinect";
      EPL_RETURN_IF_ERROR(kinect::RegisterKinectStream(engine.get(), raw));
      EPL_RETURN_IF_ERROR(
          engine
              ->Deploy(raw, std::make_unique<stream::CallbackSink>(
                                [this](const stream::Event&) {
                                  tracer_.Begin(kDispatch);
                                  if (spec_.transform) tracer_.Begin(kTransform);
                                }))
              .status());
      if (spec_.transform) {
        const std::string view = user + "/kinect_t";
        EPL_RETURN_IF_ERROR(transform::RegisterKinectTView(
            engine.get(), view, raw, options.transform));
        EPL_RETURN_IF_ERROR(
            engine
                ->Deploy(view, std::make_unique<stream::CallbackSink>(
                                   [this](const stream::Event&) { tracer_.End(); }))
                .status());
      }
    }
    EPL_ASSIGN_OR_RETURN(workflow::SessionId id, runtime->OpenSession(user));
    if (id != s) return InternalError("unexpected session id");
  }
  if (probes) {
    // Subscribers run in deployment order: this probe precedes the
    // matching operator the first Deploy attaches to the merged stream.
    EPL_RETURN_IF_ERROR(
        engine
            ->Deploy(workflow::kSessionStreamName,
                     std::make_unique<stream::CallbackSink>(
                         [this](const stream::Event& event) {
                           if (capturing_) captured_.push_back(event);
                           tracer_.Begin(kMatch);
                         }))
            .status());
  }
  for (int s = 0; s < spec_.sessions; ++s) {
    for (int g = 0; g < spec_.gestures; ++g) {
      EPL_RETURN_IF_ERROR(runtime->Deploy(
          s, definitions[static_cast<size_t>(g)], callback(s, g)));
    }
    if (spec_.composite) {
      EPL_RETURN_IF_ERROR(runtime->DeployComposite(
          s, MakeComposite(set_, s), callback(s, spec_.gestures)));
    }
  }
  if (probes) {
    EPL_RETURN_IF_ERROR(
        engine
            ->Deploy(workflow::kSessionStreamName,
                     std::make_unique<stream::CallbackSink>(
                         [this](const stream::Event&) { tracer_.End(); }))
            .status());
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (live && learn) definitions_ = std::move(learned);
  *engine_out = std::move(engine);
  *runtime_out = std::move(runtime);
  return seconds;
}

void Bench::RunProbe(Probe probe) {
  if (probe == Probe::kRelearn) {
    const int k = static_cast<int>(relearn_ms_.size());
    Relearn(k % spec_.sessions, 2 + k % (spec_.gestures - 2));
    return;
  }
  // The serving peak so far: the throwaway runtime's pages must not count.
  peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb());
  if (probe == Probe::kRecover) {
    Recover();
  } else {
    std::string wal_dir;
    if (spec_.durable) {
      Result<std::string> dir = MakeWalDir();
      Check("MakeWalDir", dir.status());
      if (dir.ok()) wal_dir = *dir;
    }
    std::unique_ptr<stream::StreamEngine> engine;
    std::unique_ptr<GestureRuntime> runtime;
    const bool setup = probe == Probe::kSetup;
    Result<double> seconds = Build(setup, /*live=*/false, wal_dir, &engine, &runtime);
    Check(setup ? "Setup" : "Restart", seconds.status());
    if (seconds.ok()) (setup ? setup_s_ : recover_s_).push_back(*seconds);
    engine.reset();
    runtime.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
    }
  }
  ::malloc_trim(0);
  ResetPeakRss();
}

void Bench::Relearn(int session, int gesture) {
  tracer_.SetControl();
  const int64_t start = NowNs();
  tracer_.Begin(kLearn);
  Result<core::GestureDefinition> definition = LearnGesture(set_, gesture);
  tracer_.End();
  const int64_t learned = NowNs();
  Check("Learn", definition.status());
  if (!definition.ok()) return;
  tracer_.Begin(kDeploy);
  const Status status =
      runtime_->Deploy(session, *definition, Callback(session, gesture));
  tracer_.End();
  const int64_t live = NowNs();
  Check("Deploy", status);
  learn_ms_.push_back(static_cast<double>(learned - start) / 1e6);
  deploy_ms_.push_back(static_cast<double>(live - learned) / 1e6);
  relearn_ms_.push_back(static_cast<double>(live - start) / 1e6);
}

void Bench::CheckpointNow() {
  // The pass ended with Flush(), so the WAL files hold every record.
  const uint64_t before = DirBytes(wal_dir_, "wal-");
  wal_bytes_ += before - std::min(before, wal_baseline_);
  wal_frames_ += frames_since_checkpoint_;
  frames_since_checkpoint_ = 0;
  tracer_.SetControl();
  const int64_t start = NowNs();
  tracer_.Begin(kCheckpoint);
  const Status status = runtime_->Checkpoint();
  tracer_.End();
  checkpoint_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
  Check("Checkpoint", status);
  wal_baseline_ = DirBytes(wal_dir_, "wal-");
  suffix_.clear();
}

void Bench::VerifyPass() {
  for (size_t s = 0; s < got_.size(); ++s) {
    std::vector<DetKey>& got = got_[s];
    const std::vector<DetKey>& want =
        (pass_ == 0 ? reference_.first : reference_.steady)[s];
    std::sort(got.begin(), got.end());
    attempted_ += want.size();
    if (got != want) {
      std::vector<DetKey> diff;
      std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                    want.end(), std::back_inserter(diff));
      failed_ += std::max<size_t>(1, diff.size());
      if (errors_.size() < 8) {
        errors_.push_back("pass " + std::to_string(pass_) + " session " +
                          std::to_string(s) + ": " + std::to_string(got.size()) +
                          " detections, expected " + std::to_string(want.size()));
      }
    }
    got.clear();
  }
}

void Bench::RunPass() {
  const Duration shift = pass_ * feed_.period;
  const bool tracing = tracer_.enabled();
  for (size_t k = 0; k < feed_.order.size(); ++k) {
    const auto [s, i] = feed_.order[k];
    const SkeletonFrame& source =
        feed_.scripts[static_cast<size_t>(s)][static_cast<size_t>(i)];
    if (tracing) tracer_.SetFrame(s, source.timestamp + shift);
    tracer_.Begin(kGenerate);
    frame_ = source;
    frame_.timestamp += shift;
    tracer_.EndBegin(kPushFrame);
    ref_ns_[k] = NowNs();
    const size_t depth = tracer_.depth();
    const Status status = runtime_->PushFrame(s, frame_);
    tracer_.EndTo(depth == 0 ? 0 : depth - 1);
    Check("PushFrame", status);
    if (spec_.flush_every_frames > 0 &&
        (k + 1) % static_cast<size_t>(spec_.flush_every_frames) == 0) {
      tracer_.SetControl();
      tracer_.Begin(kFlush);
      const Status flushed = runtime_->Flush();
      tracer_.End();
      Check("Flush", flushed);
    }
  }
  capturing_ = false;
  frames_ += feed_.order.size();
  frames_since_checkpoint_ += feed_.order.size();
  tracer_.SetControl();
  tracer_.Begin(kFlush);
  const Status status = runtime_->Flush();
  tracer_.End();
  Check("Flush", status);
  tracer_.Begin(kVerify);
  VerifyPass();
  tracer_.End();
  ++pass_;
  if (measuring_ && spec_.durable &&
      (pass_ + spec_.suffix_passes) % spec_.checkpoint_every_passes == 0) {
    CheckpointNow();
  }
}

Bench::PhaseResult Bench::RunPhase(double seconds,
                                   const std::vector<Probe>& probes) {
  PhaseResult result;
  latency_.Clear();
  chunk_us_.clear();
  chunk_us_.reserve(kLatencyChunk);
  chunk_p99_us_.clear();
  size_t next_probe = 0;
  double traffic_ns = 0;
  do {
    const uint64_t frames = frames_;
    const int64_t cpu = CpuNs();
    const int64_t start = NowNs();
    for (int p = 0; p < spec_.window_passes; ++p) RunPass();
    traffic_ns += static_cast<double>(NowNs() - start);
    result.cpu_ns += CpuNs() - cpu;
    result.frames += frames_ - frames;
    while (next_probe < probes.size() &&
           traffic_ns >= (static_cast<double>(next_probe) + 0.5) * seconds *
                             1e9 / static_cast<double>(probes.size())) {
      RunProbe(probes[next_probe++]);
    }
  } while (traffic_ns < seconds * 1e9);
  while (next_probe < probes.size()) RunProbe(probes[next_probe++]);
  result.seconds = traffic_ns / 1e9;
  return result;
}

void Bench::CheckRecovered() {
  // The re-delivered detections past the snapshot cut must be the
  // original run's, in the original order.
  attempted_ += suffix_.size();
  if (recovered_ == suffix_) return;
  auto sorted = [](std::vector<std::pair<int, DetKey>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto a = sorted(suffix_);
  const auto b = sorted(recovered_);
  std::vector<std::pair<int, DetKey>> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  failed_ += std::max<size_t>(1, diff.size());
  if (errors_.size() < 8) {
    errors_.push_back("recovery re-delivered " + std::to_string(recovered_.size()) +
                      " detections, original run " + std::to_string(suffix_.size()));
  }
}

void Bench::Recover() {
  // Between windows every pass has ended with Flush(), so a copy of the
  // live WAL directory is what a crash here would leave behind.
  Result<std::string> dir = MakeWalDir();
  Check("MakeWalDir", dir.status());
  if (!dir.ok()) return;
  std::error_code ec;
  fs::copy(wal_dir_, *dir, fs::copy_options::recursive, ec);
  Check("CopyWal", ec ? InternalError("copying the WAL: " + ec.message())
                      : OkStatus());
  snapshot_bytes_ = NewestSnapshotBytes(*dir);
  workflow::GestureRuntimeOptions options = RuntimeOptions(spec_);
  options.durability.dir = *dir;
  auto engine = std::make_unique<stream::StreamEngine>();
  std::unique_ptr<GestureRuntime> runtime;
  workflow::RecoverStats stats;
  recovered_.clear();
  recovering_ = true;
  const int64_t start = NowNs();
  Result<std::unique_ptr<GestureRuntime>> recovered = GestureRuntime::Recover(
      engine.get(), options,
      [this](workflow::SessionId session, const std::string& name) {
        const auto it = gesture_index_.find(name);
        return Callback(session, it == gesture_index_.end() ? -1 : it->second);
      },
      &stats);
  Status flushed = OkStatus();
  if (recovered.ok()) {
    runtime = std::move(recovered).value();
    flushed = runtime->Flush();
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  Check("Recover", recovered.status());
  Check("Flush", flushed);
  engine.reset();
  runtime.reset();
  recovering_ = false;
  CheckRecovered();
  recover_s_.push_back(seconds);
  replay_records_per_s_.push_back(static_cast<double>(stats.replayed_records) /
                                  seconds);
  fs::remove_all(*dir, ec);
}

int Bench::Main() {
  Status prepared = Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: preparing %s failed: %s\n",
                 spec_.name.c_str(), prepared.ToString().c_str());
    return 2;
  }
  if (spec_.durable) {
    Result<std::string> dir = MakeWalDir();
    if (!dir.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", dir.status().ToString().c_str());
      return 2;
    }
    wal_dir_ = *dir;
  }
  Result<double> setup =
      Build(/*learn=*/true, /*live=*/true, wal_dir_, &engine_, &runtime_);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 2;
  }
  setup_s_.push_back(*setup);
  // The reference run and the set-up's transients are not serving memory.
  ::malloc_trim(0);
  ResetPeakRss();
  constexpr int kRelearnProbes = 201;
  const Probe recover = spec_.durable ? Probe::kRecover : Probe::kRestart;

  std::vector<Metric> metrics;
  measuring_ = true;
  if (!args_.trace) {
    // The remaining set-ups, the recoveries (without a WAL, recovering is
    // a cold restart: a fresh runtime with the stored definitions
    // redeployed) and the relearns, interleaved: short operations timed in
    // one burst would all see the same moment of a shared host.
    std::vector<Probe> probes;
    for (int k = 0; k < std::max({spec_.setup_repeats, spec_.recover_repeats,
                                  kRelearnProbes});
         ++k) {
      if (k + 1 < spec_.setup_repeats) probes.push_back(Probe::kSetup);
      if (k < spec_.recover_repeats) probes.push_back(recover);
      if (k < kRelearnProbes) probes.push_back(Probe::kRelearn);
    }
    const PhaseResult phase = RunPhase(args_.seconds, probes);
    measuring_ = false;
    peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb());
    std::fprintf(stderr, "perfbench: %llu frames in %.3f s of traffic\n",
                 static_cast<unsigned long long>(phase.frames), phase.seconds);
    metrics = {
        {"setup_s", Percentile(setup_s_, 0.5), "s", setup_s_.size()},
        {"events_per_s", phase.events_per_s(), "1/s", phase.frames},
        {"detect_latency_p50_us", latency_.Quantile(0.5), "us", latency_.count()},
        {"detect_latency_p99_us", Percentile(chunk_p99_us_, 0.5), "us",
         latency_.count()},
        {"cpu_us_per_event",
         static_cast<double>(phase.cpu_ns) / 1e3 / static_cast<double>(phase.frames),
         "us", phase.frames},
        {"peak_rss_mb", peak_rss_mb_, "MB", 1},
        {"relearn_to_live_ms_p50", Percentile(relearn_ms_, 0.5), "ms",
         relearn_ms_.size()},
        {"recover_s", Percentile(recover_s_, 0.5), "s", recover_s_.size()},
    };
  } else {
    // First half untraced, second half traced: the difference between the
    // two rates is the tracing overhead.
    const PhaseResult plain = RunPhase(args_.seconds / 2, {});
    const cep::ShardedEngine::EngineStats sharded_before = runtime_->ShardedStats();
    tracer_.ResetTotals();
    tracer_.set_enabled(true);
    capturing_ = true;  // RunPass stops the capture after one pass
    const PhaseResult traced = RunPhase(args_.seconds / 2, {});
    tracer_.set_enabled(false);
    measuring_ = false;
    const cep::ShardedEngine::EngineStats sharded_after = runtime_->ShardedStats();
    const double frames = static_cast<double>(traced.frames);
    const double wall_ns = traced.seconds * 1e9;
    const double stage_sum = static_cast<double>(tracer_.total_self_ns());
    auto per_frame = [&](Stage stage) {
      return static_cast<double>(tracer_.self_ns(stage)) / frames;
    };
    const double flush_ms =
        tracer_.count(kFlush) == 0
            ? 0
            : static_cast<double>(tracer_.self_ns(kFlush)) / 1e6 /
                  static_cast<double>(tracer_.count(kFlush));
    if (!args_.trace_out.empty() && !tracer_.Write(args_.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args_.trace_out.c_str());
    }
    std::fprintf(stderr, "perfbench: stage self times (traced %.3f s):\n",
                 traced.seconds);
    for (int stage = 0; stage < kNumStages; ++stage) {
      std::fprintf(stderr, "  %-24s %10.1f ns/frame  %5.1f%%\n", StageName(stage),
                   static_cast<double>(tracer_.self_ns(stage)) / frames,
                   100.0 * static_cast<double>(tracer_.self_ns(stage)) / wall_ns);
    }
    if (spec_.durable) {
      for (int k = 0; k < spec_.recover_repeats; ++k) RunProbe(Probe::kRecover);
    }
    for (int k = 0; k < kRelearnProbes; ++k) RunProbe(Probe::kRelearn);
    Result<LayerReport> layers =
        ReplayLayers(spec_, definitions_, captured_, feed_.period,
                     args_.tiny ? 0.05 : 0.4);
    Check("ReplayLayers", layers.status());
    const LayerReport report = layers.ok() ? *layers : LayerReport();
    const uint64_t recoveries = replay_records_per_s_.size();
    // The sharded engine has no work on a fused workload: its figures read
    // 0 there (the match stage is the fused operator's, and the replay's
    // one-shard engine only carries the query counters).
    const double sharded =
        spec_.backend == workflow::RuntimeBackend::kSharded ? 1.0 : 0.0;
    metrics = {
        {"bench.generate_ns_per_frame", per_frame(kGenerate), "ns", traced.frames},
        {"workflow.ingest_ns_per_frame", per_frame(kPushFrame), "ns", traced.frames},
        {"workflow.deploy_ms_p50", Percentile(deploy_ms_, 0.5), "ms", deploy_ms_.size()},
        {"workflow.flush_ms", flush_ms, "ms", tracer_.count(kFlush)},
        {"core.learn_ms_p50", Percentile(learn_ms_, 0.5), "ms", learn_ms_.size()},
        {"transform.ns_per_frame", per_frame(kTransform), "ns", traced.frames},
        {"stream.dispatch_ns_per_event", per_frame(kDispatch), "ns", traced.frames},
        {"cep.sharded_engine.producer_ns_per_event", sharded * per_frame(kMatch),
         "ns", traced.frames},
        {"cep.sharded_engine.copies_per_event",
         static_cast<double>(sharded_after.events_routed - sharded_before.events_routed) /
             frames,
         "count", traced.frames},
        {"cep.sharded_engine.wakeups_per_event",
         static_cast<double>(sharded_after.worker_wakeups -
                             sharded_before.worker_wakeups) /
             frames,
         "count", traced.frames},
        {"cep.sharded_engine.shard_busy_share_max",
         sharded * report.shard_busy_share_max, "ratio", report.events},
        {"cep.sharded_engine.shard_busy_share_mean",
         sharded * report.shard_busy_share_mean, "ratio", report.events},
        {"cep.predicate_bank.ns_per_event", report.bank_ns_per_event, "ns",
         report.events},
        {"cep.predicate_bank.memo_hit_ratio", report.memo_hit_ratio, "ratio",
         report.events},
        {"cep.predicate_bank.broadcast_row_ratio", report.broadcast_row_ratio,
         "ratio", report.events},
        {"cep.multi_matcher.ns_per_event", report.matcher_ns_per_event, "ns",
         report.events},
        {"cep.multi_matcher.predicate_reads_per_event",
         report.predicate_reads_per_event, "count", report.events},
        {"cep.multi_matcher.peak_runs", report.peak_runs, "count", report.events},
        {"cep.composite.delay_us_p50", Percentile(composite_delay_us_, 0.5), "us",
         composite_delay_us_.size()},
        {"durability.wal_bytes_per_frame",
         wal_frames_ == 0 ? 0.0
                          : static_cast<double>(wal_bytes_) /
                                static_cast<double>(wal_frames_),
         "B", wal_frames_},
        {"durability.checkpoint_ms_p50", Percentile(checkpoint_ms_, 0.5), "ms",
         checkpoint_ms_.size()},
        {"durability.snapshot_bytes", static_cast<double>(snapshot_bytes_), "B",
         recoveries},
        {"durability.replay_records_per_s", Percentile(replay_records_per_s_, 0.5),
         "1/s", recoveries},
        {"trace.events_per_s", traced.events_per_s(), "1/s", traced.frames},
        {"trace.untraced_events_per_s", plain.events_per_s(), "1/s", plain.frames},
        {"trace.overhead_pct",
         100.0 * (plain.events_per_s() / traced.events_per_s() - 1.0), "%",
         traced.frames},
        {"trace.stage_sum_share", stage_sum / wall_ns, "ratio", traced.frames},
    };
  }
  Teardown();
  if (!wal_dir_.empty()) {
    std::error_code ec;
    fs::remove_all(wal_dir_, ec);
  }
  Emit(metrics);
  return 0;
}

void Bench::Emit(const std::vector<Metric>& metrics) {
  for (const std::string& error : errors_) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"provenance\": {\"simd_dispatch\": \"";
  line += cep::simd::DispatchName();
  line += "\", \"compiler\": \"";
#if defined(__clang__)
  line += "clang ";
#elif defined(__GNUC__)
  line += "gcc ";
#endif
  line += __VERSION__;
  line += "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit +
            "\", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace epl::perfbench

int main(int argc, char** argv) {
  using namespace epl::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE] [--tiny] "
                 "[--inject-drop]\n");
    return 2;
  }
  epl::Result<WorkloadSpec> spec = FindWorkload(args.workload, args.tiny);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  Bench bench(args, *spec);
  return bench.Main();
}
