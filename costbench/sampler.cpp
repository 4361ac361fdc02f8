#include "sampler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace costbench {
namespace {

constexpr int kMaxDepth = 64;

// Signal-handler view of the armed sampler's buffers.
struct Buffers {
  void** frames = nullptr;
  std::uintptr_t* leaf_pc = nullptr;
  int* depth = nullptr;
  std::size_t capacity = 0;
};
Buffers g_buffers;
std::atomic<std::size_t> g_count{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i < g_buffers.capacity) {
    g_buffers.depth[i] = backtrace(g_buffers.frames + i * kMaxDepth, kMaxDepth);
    const auto* uc = static_cast<const ucontext_t*>(context);
    g_buffers.leaf_pc[i] =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    g_count.store(i + 1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

std::string demangle(const char* name) {
  int status = 0;
  std::unique_ptr<char, decltype(&std::free)> out(
      abi::__cxa_demangle(name, nullptr, nullptr, &status), &std::free);
  return status == 0 && out ? std::string(out.get()) : std::string(name);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

// One level of a code address's inline chain: the function and the source
// location inside it ("" for shared-library code, which carries no debug
// information here).
struct Frame {
  std::string function;
  std::string file;
};

// The layer a frame is charged to, or "" to charge its caller.
std::string classify(const Frame& f) {
  static const char* const kAlloc[] = {
      "operator new", "operator delete", "malloc", "free", "calloc",
      "realloc", "cfree", "posix_memalign", "aligned_alloc", "memalign",
      "_int_malloc", "_int_free", "_int_realloc", "malloc_consolidate",
      "tcache_"};
  for (const char* a : kAlloc)
    if (starts_with(f.function, a)) return "alloc";
  if (contains(f.file, "costbench/alloc_count.cpp")) return "alloc";
  if (contains(f.file, "/bits/std_function.h")) return "std_function";
  if (contains(f.file, "/costbench/")) return "bench";
  // src/<module>/...: the last "/src/" segment names the module.
  const std::size_t at = f.file.rfind("/src/");
  if (at == std::string::npos) return {};
  const std::size_t end = f.file.find('/', at + 5);
  return end == std::string::npos ? std::string()
                                  : f.file.substr(at + 5, end - at - 5);
}

// Inline chains (innermost level first) for code addresses: addresses in
// the executable go through `addr2line -i` over its debug information in
// one batch; shared-library addresses get their dynamic symbol name.
class Symbolizer {
 public:
  Symbolizer(const std::string& exe_path, const std::string& scratch_path)
      : exe_(exe_path), scratch_(scratch_path) {
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* bias) {
          *static_cast<std::uintptr_t*>(bias) = info->dlpi_addr;
          return 1;  // the first object is the main program
        },
        &bias_);
    Dl_info self{};
    if (dladdr(reinterpret_cast<void*>(&demangle), &self) == 0)
      throw std::runtime_error("dladdr cannot see the executable");
    exe_base_ = self.dli_fbase;
  }

  void add(std::uintptr_t pc) {
    if (chains_.count(pc)) return;
    Dl_info info{};
    auto& chain = chains_[pc];
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_fbase == exe_base_) {
      exe_pcs_.push_back(pc);
    } else if (info.dli_sname) {
      chain.push_back({demangle(info.dli_sname), ""});
    }
  }

  /// Resolve every executable address added so far.
  void resolve() {
    if (exe_pcs_.empty()) return;
    if (exe_.find('\'') != std::string::npos ||
        scratch_.find('\'') != std::string::npos)
      throw std::runtime_error("quote in a path handed to addr2line");
    {
      std::ofstream out(scratch_);
      out << std::hex;
      for (auto pc : exe_pcs_) out << "0x" << pc - bias_ << "\n";
      if (!out) throw std::runtime_error("cannot write " + scratch_);
    }
    const std::string cmd = "addr2line -a -f -i -C -e '" + exe_ + "' < '" +
                            scratch_ + "'";
    std::unique_ptr<FILE, decltype(&pclose)> pipe(popen(cmd.c_str(), "r"),
                                                  &pclose);
    if (!pipe) throw std::runtime_error("cannot run addr2line");
    // Output: per address, "0x<addr>" then (function, file:line) pairs.
    std::vector<Frame>* chain = nullptr;
    std::string line, function;
    bool want_function = true;
    char buf[4096];
    while (fgets(buf, sizeof buf, pipe.get())) {
      line.assign(buf);
      if (!line.empty() && line.back() == '\n') line.pop_back();
      if (starts_with(line, "0x")) {
        const auto pc = std::stoull(line, nullptr, 16) + bias_;
        chain = &chains_[pc];
        want_function = true;
      } else if (chain && want_function) {
        function = line;
        want_function = false;
      } else if (chain) {
        chain->push_back({function, line});
        want_function = true;
      }
    }
    const int status = pclose(pipe.release());
    std::remove(scratch_.c_str());
    if (status != 0) throw std::runtime_error("addr2line failed");
  }

  const std::vector<Frame>& chain(std::uintptr_t pc) const {
    return chains_.at(pc);
  }

 private:
  std::string exe_, scratch_;
  std::uintptr_t bias_ = 0;
  void* exe_base_ = nullptr;
  std::vector<std::uintptr_t> exe_pcs_;
  std::unordered_map<std::uintptr_t, std::vector<Frame>> chains_;
};

}  // namespace

Sampler::Sampler(std::size_t max_samples)
    : frames_(max_samples * kMaxDepth),
      leaf_pc_(max_samples),
      depth_(max_samples) {
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler
}

Sampler::~Sampler() { stop(); }

void Sampler::start(int period_us) {
  if (armed_) return;
  g_buffers = {frames_.data(), leaf_pc_.data(), depth_.data(), depth_.size()};
  g_count.store(0);
  struct sigaction sa {};
  sa.sa_sigaction = &on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0)
    throw std::runtime_error("sigaction(SIGPROF) failed");
  // A CLOCK_MONOTONIC timer has high-resolution expiry; the process CPU
  // timers (ITIMER_PROF) only fire on scheduler ticks. The sampled run is
  // single-threaded and CPU-bound, so wall time tracks its CPU time.
  sigevent ev{};
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer_) != 0)
    throw std::runtime_error("timer_create failed");
  itimerspec period{};
  period.it_interval.tv_nsec = static_cast<long>(period_us) * 1000;
  period.it_value = period.it_interval;
  if (timer_settime(timer_, 0, &period, nullptr) != 0) {
    timer_delete(timer_);
    throw std::runtime_error("timer_settime failed");
  }
  armed_ = true;
}

void Sampler::stop() {
  if (!armed_) return;
  timer_delete(timer_);
  signal(SIGPROF, SIG_IGN);
  armed_ = false;
}

std::size_t Sampler::samples() const { return g_count.load(); }

std::map<std::string, std::uint64_t> Sampler::attribute(
    const std::string& exe_path, const std::string& scratch_path) const {
  // Per sample, the interrupted PC and then the callers' return addresses
  // (minus one, to land inside the call instruction); the handler and the
  // signal trampoline above the interrupted frame are skipped.
  const std::size_t n = samples();
  std::vector<std::vector<std::uintptr_t>> stacks(n);
  Symbolizer symbols(exe_path, scratch_path);
  for (std::size_t i = 0; i < n; ++i) {
    void* const* frames = frames_.data() + i * kMaxDepth;
    const int depth = depth_[i];
    int first = 0;
    while (first < depth &&
           reinterpret_cast<std::uintptr_t>(frames[first]) != leaf_pc_[i])
      ++first;
    if (first == depth) first = std::min(2, depth);
    for (int f = first; f < depth; ++f) {
      auto pc = reinterpret_cast<std::uintptr_t>(frames[f]);
      if (f > first) --pc;
      stacks[i].push_back(pc);
      symbols.add(pc);
    }
  }
  symbols.resolve();

  std::map<std::string, std::uint64_t> out;
  for (const auto& stack : stacks) {
    std::string layer;
    for (auto pc : stack) {
      for (const Frame& frame : symbols.chain(pc)) {
        layer = classify(frame);
        if (!layer.empty()) break;
      }
      if (!layer.empty()) break;
    }
    ++out[layer.empty() ? "other" : layer];
  }
  return out;
}

}  // namespace costbench
