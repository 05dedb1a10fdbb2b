#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

thread_local std::vector<std::int64_t> t_open_spans;

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

// --- spans ------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const char* name, std::uint64_t request,
                          std::uint64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.request = request;
  span.thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index, std::uint64_t end_ns) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Stage::Stage(const char* name, std::uint64_t request) : start_ns_(now_ns()) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) index_ = tracer.open(name, request, start_ns_);
}

Stage::~Stage() { stop(); }

double Stage::stop() {
  if (open_) {
    open_ = false;
    const std::uint64_t end = now_ns();
    seconds_ = static_cast<double>(end - start_ns_) * 1e-9;
    if (index_ >= 0) Tracer::instance().close(index_, end);
  }
  return seconds_;
}

std::vector<std::pair<std::string, double>> layer_self_seconds(
    const std::vector<Span>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < spans[i].start_ns) continue;  // never closed
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    self[i] += d;
    if (spans[i].parent >= 0) self[static_cast<std::size_t>(spans[i].parent)] -= d;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[layer_of(spans[i].name)] += std::max(0.0, self[i]);
  }
  return {by_layer.begin(), by_layer.end()};
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  const std::uint64_t epoch =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
        << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - epoch) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

Percentile tail_percentile(const std::vector<double>& values) {
  for (const double q : {0.99, 0.90, 0.50}) {
    const double beyond = (1.0 - q) * static_cast<double>(values.size());
    if (beyond >= 10.0) return {q, quantile(values, q)};
  }
  return {0.5, quantile(values, 0.5)};
}

std::string timing_note(const std::string& label, const std::vector<double>& values,
                        const std::string& unit) {
  const Percentile tail = tail_percentile(values);
  return label + ": " + std::to_string(values.size()) + " samples, p50 " +
         json_number(median(values)) + " " + unit + ", p" +
         std::to_string(static_cast<int>(tail.q * 100)) + " " + json_number(tail.value) +
         " " + unit;
}

// --- results ----------------------------------------------------------------

void Outcome::fail(const std::string& what) {
  if (correct) mismatch = what;
  correct = false;
}

void Outcome::add_e2e(std::string name, double value, std::string unit) {
  e2e.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::add_named(std::string name, double value, std::string unit) {
  named.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::add_layer(std::string name, double value, std::string unit) {
  layers.push_back({std::move(name), value, std::move(unit)});
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double process_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double process_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; fields >> field && index <= 15; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void set_process_affinity(int pid, const cpu_set_t& cpus) {
  const std::string tasks = "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
                            "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
    // A thread that ended since the listing is not an error.
    if (sched_setaffinity(tid, sizeof(cpus), &cpus) != 0 && errno != ESRCH) {
      throw std::runtime_error("sched_setaffinity(" + std::to_string(tid) + ") failed");
    }
  }
}

int run_child(const std::vector<std::string>& argv,
              const std::vector<std::string>& env_overrides, std::string* out) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return -1;
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    const std::string key = entry.substr(0, entry.find('='));
    const bool overridden = std::any_of(
        env_overrides.begin(), env_overrides.end(),
        [&](const std::string& o) { return o.substr(0, o.find('=')) == key; });
    if (!overridden) env.push_back(entry);
  }
  env.insert(env.end(), env_overrides.begin(), env_overrides.end());
  std::vector<char*> cargv, cenv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  for (const std::string& e : env) cenv.push_back(const_cast<char*>(e.c_str()));
  cenv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    execve(cargv[0], cargv.data(), cenv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  char buffer[4096];
  ssize_t n;
  while ((n = read(pipe_fds[0], buffer, sizeof(buffer))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (out != nullptr) out->append(buffer, static_cast<std::size_t>(n));
  }
  close(pipe_fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --- provenance -------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out;
  pglb::append_json_string(out, s);
  return out;
}

}  // namespace

std::uint64_t l3_bytes() {
  const long sys = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (sys > 0) return static_cast<std::uint64_t>(sys);
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level(dir + "level"), size(dir + "size");
    int lvl = 0;
    std::string text;
    if (!(level >> lvl) || !(size >> text) || lvl != 3) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    return value;
  }
  return 0;
}

std::string build_refusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimized build";
#else
  return "";
#endif
}

std::string provenance_json(const Options& options, std::uint64_t input_bytes,
                            int replicas, int workers, int pool_threads) {
  const char* threads = std::getenv("PGLB_THREADS");
  const std::uint64_t l3 = l3_bytes();
  std::ostringstream out;
  out << "{\"workload\":" << json_string(options.workload)
      << ",\"seed\":" << options.seed
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << json_string(cpu_model()) << ",\"l3_bytes\":" << l3
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"pglb_threads\":" << json_string(threads != nullptr ? threads : "")
      << ",\"input_bytes\":" << input_bytes << ",\"input_over_l3\":"
      << json_number(l3 > 0 ? static_cast<double>(input_bytes) / static_cast<double>(l3)
                            : 0.0)
      << ",\"replicas\":" << replicas << ",\"workers\":" << workers
      << ",\"pool_threads\":" << pool_threads
      << ",\"traced\":" << (options.trace ? "true" : "false") << "}";
  return out.str();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
