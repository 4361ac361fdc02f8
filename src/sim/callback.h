#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ntier::sim {

template <typename Sig>
class Function;

/// Move-only type-erased callable: the simulator's continuation type.
///
/// Every scheduled event and every request-path continuation is one of
/// these. Unlike `std::function` it never copies its target (so captures may
/// be move-only, and a continuation is owned by exactly one place at a
/// time), and callables up to `kInlineSize` bytes live in an inline buffer,
/// so scheduling the typical closure — a `this` pointer, a `RequestPtr` and
/// a few indices — allocates nothing. Larger (or over-aligned) callables
/// fall back to one heap allocation.
///
/// Moves go through a per-type relocate function (a heap target moves its
/// pointer). `operator()` is `const`, like
/// `std::function`'s: calling may still mutate the target (`mutable`
/// lambdas), constness is about the wrapper. Calling an empty Function is a
/// precondition violation. A moved-from Function is empty.
template <typename R, typename... Args>
class Function<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = 48;

  Function() noexcept = default;
  Function(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Function> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  Function(F&& f) {  // NOLINT: implicit, so lambdas convert at call sites
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D> ||
                  is_std_function<D>::value) {
      if (!f) return;  // null pointer / empty std::function: stay empty
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      ops_ = &kHeapOps<D>;
    }
  }

  Function(Function&& other) noexcept { take(other); }
  Function& operator=(Function&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Function& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;
  ~Function() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    assert(ops_ != nullptr && "call of an empty sim::Function");
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

  /// True when the target lives in the inline buffer (no heap allocation).
  bool stored_inline() const noexcept { return ops_ != nullptr && !ops_->heap; }

 private:
  struct Ops {
    R (*invoke)(void* target, Args&&... args);
    /// Move-construct the target from `src` into `dst`, then destroy the
    /// source.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null for trivially destructible inline targets.
    void (*destroy)(void* target) noexcept;
    bool heap;
  };

  template <typename T>
  struct is_std_function : std::false_type {};
  template <typename S>
  struct is_std_function<std::function<S>> : std::true_type {};

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static R call(D& target, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      std::invoke(target, std::forward<Args>(args)...);
    else
      return std::invoke(target, std::forward<Args>(args)...);
  }
  template <typename D>
  static R invoke_inline(void* p, Args&&... args) {
    return call(*static_cast<D*>(p), std::forward<Args>(args)...);
  }
  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_inline(void* p) noexcept {
    static_cast<D*>(p)->~D();
  }
  template <typename D>
  static D* heap_target(void* p) {
    D* target = nullptr;
    std::memcpy(&target, p, sizeof target);
    return target;
  }
  template <typename D>
  static void relocate_heap(void* dst, void* src) noexcept {
    std::memcpy(dst, src, sizeof(D*));
  }
  template <typename D>
  static R invoke_heap(void* p, Args&&... args) {
    return call(*heap_target<D>(p), std::forward<Args>(args)...);
  }
  template <typename D>
  static void destroy_heap(void* p) noexcept {
    delete heap_target<D>(p);
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>, &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
      false};
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, &relocate_heap<D>,
                                &destroy_heap<D>, true};

  void take(Function& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    ops_->relocate(buf_, other.buf_);
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(buf_);
  }

  alignas(void*) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// A scheduled event's action, or any no-argument continuation.
using Callback = Function<void()>;

}  // namespace ntier::sim
