// Measurement scaffolding for perfbench.cc: clocks, CPU pinning, RSS,
// percentiles with a sample floor, the failure tally, the metric report,
// the reachability oracle and the in-memory span tracer. Nothing here calls
// into the library except through the run graph the oracle searches.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/workflow/run.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time on `clock` (CLOCK_THREAD_CPUTIME_ID, CLOCK_PROCESS_CPUTIME_ID):
/// it stops while the thread or process is preempted or its virtual CPU is
/// descheduled by the host.
inline uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Keeps a computed value alive, so the loop that produced it is not
/// optimized away.
inline void Consume(uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

/// Misconfiguration or an unusable environment: no result is printed.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <class T>
T Must(skl::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// SplitMix64: the benchmark's only randomness, seeded from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline void PinThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    Die("cannot pin a thread to CPU " + std::to_string(cpu));
  }
}

/// Resident set size in MB, after returning freed heap pages to the OS so
/// that memory freed by earlier phases does not count.
inline double RssMb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) Die("cannot read statm");
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// The q-quantile of `samples`. A percentile is only reported when at least
/// ten samples lie beyond it; fewer means the workload is sized wrong.
inline double Quantile(std::vector<uint64_t> samples, double q,
                       const char* what) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (beyond < 10.0) {
    Die(std::string(what) + ": only " + std::to_string(samples.size()) +
        " samples, too few for the requested percentile");
  }
  const size_t k = std::min(samples.size() - 1,
                            static_cast<size_t>(q * samples.size()));
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return static_cast<double>(samples[k]);
}

/// Median of a handful of repeated whole-operation timings.
inline double Median(std::vector<double> values) {
  if (values.empty()) Die("median of nothing");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Mean of per-round or per-window figures. Used for throughputs and
/// percentiles rather than the median: the host alternates between a slow
/// state and one up to 1.6x faster for seconds at a time, and the median of
/// such a two-state mix jumps from one state's figure to the other's as
/// their shares of a run change, while the mean moves in proportion. Rounds
/// time their phases for equal lengths, so the mean of per-round rates is
/// the work of all rounds over their time.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) Die("mean of nothing");
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Most windows a sample series is cut into, one per round of a run. A host
/// stall then moves one window's figure, a twentieth of the mean.
inline constexpr size_t kWindows = 20;

/// The q-quantile of time-ordered samples (one vector per thread),
/// computed per window — window k joins the k-th of kWindows equal slices
/// of every thread's samples — and reported as the mean over windows.
/// Fewer windows are used when the samples cannot give each one the floor
/// of ten samples beyond the quantile.
inline double WindowedQuantile(
    const std::vector<std::vector<uint64_t>>& per_thread, double q,
    const char* what) {
  size_t total = 0;
  for (const auto& s : per_thread) total += s.size();
  const double floor = 10.0 / (1.0 - q);
  const size_t windows = std::min(
      kWindows, static_cast<size_t>(static_cast<double>(total) / floor));
  if (windows == 0) return Quantile({}, q, what);  // dies: below the floor
  std::vector<double> per_window;
  for (size_t k = 0; k < windows; ++k) {
    std::vector<uint64_t> window;
    for (const auto& s : per_thread) {
      window.insert(window.end(), s.begin() + s.size() * k / windows,
                    s.begin() + s.size() * (k + 1) / windows);
    }
    per_window.push_back(Quantile(std::move(window), q, what));
  }
  return Mean(per_window);
}

/// Timed samples of one round, in storage allocated and written before the
/// first round, so that recording samples never counts as growth of the
/// service's resident memory. Samples past the capacity are dropped.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) : data_(capacity) {}
  void Add(uint64_t ns) {
    if (size_ < data_.size()) data_[size_++] = ns;
  }
  /// Appends the round's samples to `out` and empties the buffer.
  void DrainTo(std::vector<uint64_t>* out) {
    out->insert(out->end(), data_.begin(), data_.begin() + size_);
    size_ = 0;
  }

 private:
  std::vector<uint64_t> data_;
  size_t size_ = 0;
};

/// Operations attempted, operations that returned an error, and answers
/// that disagreed with the oracle. Threads keep their own and merge.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_problem;

  void Note(const std::string& problem) {
    if (first_problem.empty()) first_problem = problem;
  }
  /// Counts one operation; returns its success.
  bool Op(const skl::Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    Note(std::string(what) + ": " + status.ToString());
    return false;
  }
  void Wrong(const std::string& what) {
    ++wrong;
    Note("wrong answer: " + what);
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    if (first_problem.empty()) first_problem = other.first_problem;
  }
};

/// Named metrics with units, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A line printed under the metrics, not part of the result.
  void Note(const std::string& line) { notes_.push_back(line); }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const auto& m : metrics_) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Reference reachability: depth-first search over the generated run
/// graph, independent of every labeling structure under test.
inline bool OracleReaches(const skl::Run& run, skl::VertexId v,
                          skl::VertexId w) {
  if (v == w) return true;
  const skl::Digraph& g = run.graph();
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<skl::VertexId> frontier{v};
  seen[v] = 1;
  while (!frontier.empty()) {
    const skl::VertexId u = frontier.back();
    frontier.pop_back();
    for (skl::VertexId next : g.OutNeighbors(u)) {
      if (next == w) return true;
      if (!seen[next]) {
        seen[next] = 1;
        frontier.push_back(next);
      }
    }
  }
  return false;
}

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written out once the run ends. A disabled tracer records
/// nothing, which is how the untraced twin of a traced operation runs.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for an operation
    uint64_t op = 0;  ///< spans of one operation share this id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent, uint64_t op) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    if (span >= 0) spans_[span].end_ns = NowNs();
  }
  /// Runs `body` inside a span; returns the span's duration in ns (measured
  /// either way, so an untraced twin reports the same quantity).
  template <class F>
  uint64_t Timed(const char* name, int parent, uint64_t op, F&& body) {
    const int span = Begin(name, parent, op);
    const uint64_t start = NowNs();
    body();
    const uint64_t end = NowNs();
    End(span);
    return end - start;
  }

  /// Per span name: total duration and total self time (duration minus the
  /// part covered by child spans).
  std::vector<std::pair<std::string, std::pair<double, double>>> SelfTimes()
      const {
    std::vector<uint64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<std::pair<std::string, std::pair<double, double>>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == s.name; });
      if (it == out.end()) {
        out.push_back({s.name, {0.0, 0.0}});
        it = out.end() - 1;
      }
      const double total = static_cast<double>(s.end_ns - s.start_ns);
      it->second.first += total;
      it->second.second += total - static_cast<double>(covered[i]);
    }
    return out;
  }

  bool WriteJson(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{" << header << ",\n\"spans\": [\n";
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns - base
          << ", \"end_ns\": " << s.end_ns - base << ", \"parent\": "
          << s.parent << ", \"op\": " << s.op << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
