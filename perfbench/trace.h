// Producer-thread span tracer of the benchmark's traced runs.
//
// A span is (stage, start, end, parent, id). The spans of one frame share
// the id (session, frame timestamp); spans of control calls (flush,
// checkpoint, learn, deploy) carry session -1 and a running counter. Spans
// nest on one stack, so a stage's SELF time is its duration minus what its
// child spans cover; self times are accumulated for every span. Full span
// records are kept in memory for a sample of frames (every
// kFrameSampleStride-th frame, capped) and written out when the run ends.
//
// Spans are opened and closed by the benchmark's own code around calls
// into the runtime, and by probe operators it attaches to the runtime's
// streams (see harness.cc); the runtime itself is not instrumented.

#ifndef EPL_PERFBENCH_TRACE_H_
#define EPL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace epl::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Producer-thread stages. Every nanosecond of a traced measured phase is
/// inside exactly one top-level stage, so the self times add up to the
/// phase's wall-clock (the stage-split check).
enum Stage : int {
  kGenerate,    // bench: build the next frame (timestamp shift)
  kPushFrame,   // workflow: PushFrame self time (session lookup, WAL append)
  kDispatch,    // stream: raw -> view -> merge tap dispatch self time
  kTransform,   // transform: the kinect_t view operator
  kMatch,       // cep: sharded producer Push self time
  kCallback,    // bench: detection callbacks
  kFlush,       // workflow: Flush
  kVerify,      // bench: per-pass detection check
  kCheckpoint,  // durability: Checkpoint
  kLearn,       // core: AddSample x k + Learn
  kDeploy,      // workflow: Deploy hot-swap
  kNumStages,
};

inline const char* StageName(int stage) {
  static const char* const kNames[kNumStages] = {
      "bench.generate", "workflow.push_frame",
      "stream.dispatch", "transform",     "cep.match",
      "bench.callback", "workflow.flush", "bench.verify",
      "durability.checkpoint", "core.learn", "workflow.deploy"};
  return kNames[stage];
}

class Tracer {
 public:
  static constexpr uint64_t kFrameSampleStride = 256;

  explicit Tracer(size_t max_records) : max_records_(max_records) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Sets the id of the spans opened from now on to one frame's.
  void SetFrame(int session, int64_t time) {
    session_ = session;
    id_time_ = time;
    sampled_ = (frames_++ % kFrameSampleStride) == 0;
  }
  /// Sets the id of the spans opened from now on to a control call's.
  void SetControl() {
    session_ = -1;
    id_time_ = static_cast<int64_t>(controls_++);
    sampled_ = true;
  }

  void Begin(Stage stage) {
    if (enabled_) BeginAt(stage, NowNs());
  }
  void End() {
    if (enabled_) EndAt(NowNs());
  }
  /// Closes the innermost span and opens `next` at the same instant.
  void EndBegin(Stage next) {
    if (!enabled_) return;
    const int64_t now = NowNs();
    EndAt(now);
    BeginAt(next, now);
  }
  /// Closes open spans until `depth` remain (spans a probe opened inside
  /// a call that the caller's span encloses).
  void EndTo(size_t depth) {
    if (!enabled_) return;
    const int64_t now = NowNs();
    while (stack_.size() > depth) EndAt(now);
  }
  size_t depth() const { return stack_.size(); }

  int64_t self_ns(int stage) const { return self_ns_[stage]; }
  uint64_t count(int stage) const { return count_[stage]; }
  int64_t total_self_ns() const {
    int64_t total = 0;
    for (int64_t ns : self_ns_) total += ns;
    return total;
  }
  void ResetTotals() {
    for (int s = 0; s < kNumStages; ++s) {
      self_ns_[s] = 0;
      count_[s] = 0;
    }
  }

  /// Writes the recorded spans as one JSON document.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\": [";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"i\": " << i << ", \"name\": \""
          << StageName(r.stage) << "\", \"parent\": " << r.parent
          << ", \"session\": " << r.session << ", \"id\": " << r.id_time
          << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
          << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    Stage stage;
    int64_t start_ns;
    int64_t child_ns;
    int64_t record;  // index into records_, or -1 when not recorded
  };
  struct Record {
    Stage stage;
    int64_t parent;
    int session;
    int64_t id_time;
    int64_t start_ns;
    int64_t end_ns;
  };

  void BeginAt(Stage stage, int64_t now) {
    int64_t record = -1;
    if (sampled_ && records_.size() < max_records_) {
      record = static_cast<int64_t>(records_.size());
      records_.push_back(Record{stage, stack_.empty() ? -1 : stack_.back().record,
                                session_, id_time_, now, now});
    }
    stack_.push_back(Open{stage, now, 0, record});
  }
  void EndAt(int64_t now) {
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = now - open.start_ns;
    self_ns_[open.stage] += duration - open.child_ns;
    ++count_[open.stage];
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.record >= 0) records_[static_cast<size_t>(open.record)].end_ns = now;
  }

  bool enabled_ = false;
  size_t max_records_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  int64_t self_ns_[kNumStages] = {};
  uint64_t count_[kNumStages] = {};
  int session_ = -1;
  int64_t id_time_ = 0;
  bool sampled_ = false;
  uint64_t frames_ = 0;
  uint64_t controls_ = 0;
};

}  // namespace epl::perfbench

#endif  // EPL_PERFBENCH_TRACE_H_
