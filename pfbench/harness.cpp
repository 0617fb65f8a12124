#include "pfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/check.h"
#include "src/common/cpu_features.h"
#include "src/common/rng.h"
#include "src/serve/serving_engine.h"

namespace pfbench {

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  return n - rank;
}

bool tail_supported(std::size_t n, double p, std::size_t min_beyond) {
  return samples_beyond(n, p) >= min_beyond;
}

double median(const std::vector<double>& xs) {
  return pf::percentile_nearest_rank(xs, 50.0);
}

double windowed_percentile(const std::vector<double>& xs, std::size_t window,
                           double p) {
  PF_CHECK(window > 0);
  if (xs.size() < 2 * window) return pf::percentile_nearest_rank(xs, p);
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= xs.size(); i += window)
    per_window.push_back(pf::percentile_nearest_rank(
        std::vector<double>(xs.begin() + static_cast<long>(i),
                            xs.begin() + static_cast<long>(i + window)),
        p));
  return median(per_window);
}

long Tracer::add(std::string name, double start, double end, long parent,
                 long id, int lane) {
  if (!enabled_) return -1;
  PF_CHECK(end >= start) << "span " << name << " ends before it starts";
  PF_CHECK(parent < static_cast<long>(spans_.size()))
      << "span " << name << " names a parent that does not exist yet";
  spans_.push_back(Span{std::move(name), start, end, parent, id, lane});
  return static_cast<long>(spans_.size()) - 1;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  double t0 = 0.0;
  if (!spans_.empty()) {
    t0 = spans_.front().start;
    for (const Span& s : spans_) t0 = std::min(t0, s.start);
  }
  std::ofstream f(path);
  PF_CHECK(f.good()) << "cannot write trace " << path;
  f << "{\"otherData\": {";
  for (std::size_t i = 0; i < meta.size(); ++i)
    f << (i ? ", " : "") << '"' << json_escape(meta[i].first) << "\": \""
      << json_escape(meta[i].second) << '"';
  f << "},\n\"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                  (s.start - t0) * 1e6, s.duration() * 1e6);
    f << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name)
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane << ", " << buf
      << ", \"args\": {\"index\": " << i << ", \"parent\": " << s.parent
      << ", \"id\": " << s.id << "}}";
  }
  f << "\n]}\n";
  PF_CHECK(f.good()) << "failed writing trace " << path;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.start, p.start);
      const double b = std::min(s.end, p.end);
      if (b > a) children[static_cast<std::size_t>(s.parent)].push_back({a, b});
    }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cs = children[i];
    std::sort(cs.begin(), cs.end());
    double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : cs) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

std::uint64_t input_seed(std::uint64_t seed, const char* stream) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the stream name
  for (const char* c = stream; *c; ++c)
    h = (h ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
  return pf::derive_stream_seed(seed, h, 0);
}

std::vector<pf::InferRequest> make_requests(std::uint64_t seed, std::size_t n,
                                            std::size_t vocab,
                                            std::size_t seq_len,
                                            std::uint64_t first_id) {
  pf::Rng rng(seed);
  std::vector<pf::InferRequest> rs(n);
  for (std::size_t i = 0; i < n; ++i) {
    rs[i].id = first_id + i;
    const std::size_t len = 1 + rng.uniform_int(seq_len);
    rs[i].ids.resize(len);
    for (int& tok : rs[i].ids) tok = static_cast<int>(rng.uniform_int(vocab));
  }
  return rs;
}

std::vector<double> fixed_rate_arrivals(double rate, double duration) {
  PF_CHECK(rate > 0.0 && duration >= 0.0);
  std::vector<double> out;
  for (std::size_t i = 0;; ++i) {
    const double t = static_cast<double>(i) / rate;
    if (t >= duration) break;
    out.push_back(t);
  }
  return out;
}

namespace {
constexpr double kSpinSeconds = 300e-6;
}  // namespace

OpenLoopResult run_open_loop(pf::RequestQueue& queue,
                             std::vector<pf::InferRequest> requests,
                             const std::vector<double>& offsets,
                             double origin) {
  PF_CHECK(requests.size() == offsets.size());
  OpenLoopResult out;
  out.due.reserve(offsets.size());
  out.lag.reserve(offsets.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double due = origin + offsets[i];
    // Sleep until shortly before the due time, then spin: a sleeping
    // thread's wake-up alone can be late by a millisecond or more.
    double now = pf::now_seconds();
    if (due - now > kSpinSeconds)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now - kSpinSeconds));
    while ((now = pf::now_seconds()) < due) {
    }
    requests[i].enqueue_seconds = due;
    queue.push(std::move(requests[i]));
    out.due.push_back(due);
    out.lag.push_back(now - due);
  }
  queue.close();
  return out;
}

namespace {

const char* const kLibraryKnobs[] = {"PF_SIMD_LEVEL", "PF_FORCE_SCALAR",
                                     "PF_TRANSPORT", nullptr};

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (f) std::getline(f, line);
  return line;
}

std::string cgroup_cpu_quota() {
  // cgroup v2 publishes "<quota> <period>" (quota "max" = unlimited);
  // v1 splits the two into separate files (quota -1 = unlimited).
  const std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) {
    std::istringstream in(v2);
    std::string quota, period;
    in >> quota >> period;
    if (quota == "max") return "max";
    return quota + "/" + period + " us";
  }
  const std::string q = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  const std::string p = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (q.empty()) return "unknown";
  if (q == "-1") return "max";
  return q + "/" + p + " us";
}

}  // namespace

std::string Environment::describe() const {
  std::string knobs;
  for (const auto& [k, v] : knobs_set) knobs += " " + k + "=" + v;
  return "simd=" + simd + " nproc=" + std::to_string(nproc) +
         " cgroup_cpu_quota=" + cpu_quota +
         " knobs=" + (knobs.empty() ? std::string("none") : knobs.substr(1));
}

Environment probe_environment() {
  Environment env;
  env.simd = pf::simd_level_name(pf::active_simd_level());
  cpu_set_t set;
  CPU_ZERO(&set);
  env.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<long>(std::thread::hardware_concurrency());
  env.cpu_quota = cgroup_cpu_quota();
  for (const char* const* k = kLibraryKnobs; *k; ++k)
    if (const char* v = std::getenv(*k)) env.knobs_set.emplace_back(*k, v);
  return env;
}

double peak_rss_mib() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;  // ru_maxrss is KiB on Linux
}

long thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  return 0;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  unsigned long long v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

}  // namespace pfbench
