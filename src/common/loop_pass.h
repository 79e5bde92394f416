// One pass of an event loop as a thread-local scope. Code running inside a
// pass can defer work to its end with LoopPass::Defer(); the work runs on
// the same thread, in order, when the outermost pass closes — after the
// loop has handled every event the pass picked up.
//
// The HTTP server opens one pass per epoll iteration. The serving layer's
// coalescer holds an idle lane's rows to the end of the pass, so the
// requests one pass parsed leave as one batch: a lone request still runs to
// completion in the pass that read it, and a burst becomes one batch for
// the pool (adaptive batching in the style of run-to-completion
// dataplanes such as IX).
//
// Usage:
//   for (;;) {
//     WaitForEvents();
//     LoopPass pass;
//     HandleEvents();   // may call LoopPass::Defer(...)
//   }                   // deferred work runs here
#ifndef RESEST_COMMON_LOOP_PASS_H_
#define RESEST_COMMON_LOOP_PASS_H_

#include <functional>

namespace resest {

class LoopPass {
 public:
  /// Opens a pass on the calling thread; a pass opened inside another one
  /// joins it.
  LoopPass();
  /// Closing the outermost pass runs the deferred work in order, including
  /// work that the deferred work defers, until none is left. The thread
  /// stays inside the pass while it does.
  ~LoopPass();

  LoopPass(const LoopPass&) = delete;
  LoopPass& operator=(const LoopPass&) = delete;

  /// True while the calling thread is inside a pass.
  static bool Active();
  /// Runs `fn` on this thread when its outermost pass closes. Requires
  /// Active(). `fn` must not throw.
  static void Defer(std::function<void()> fn);
};

}  // namespace resest

#endif  // RESEST_COMMON_LOOP_PASS_H_
