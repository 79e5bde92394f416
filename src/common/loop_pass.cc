#include "src/common/loop_pass.h"

#include <cassert>
#include <utility>
#include <vector>

namespace resest {
namespace {

struct PassState {
  int depth = 0;
  std::vector<std::function<void()>> deferred;
};

PassState& State() {
  thread_local PassState state;
  return state;
}

}  // namespace

LoopPass::LoopPass() { ++State().depth; }

LoopPass::~LoopPass() {
  PassState& state = State();
  if (state.depth == 1) {
    // Index loop: deferred work may append more while it runs.
    for (size_t i = 0; i < state.deferred.size(); ++i) {
      std::function<void()> fn = std::move(state.deferred[i]);
      fn();
    }
    state.deferred.clear();
  }
  --state.depth;
}

bool LoopPass::Active() { return State().depth > 0; }

void LoopPass::Defer(std::function<void()> fn) {
  assert(Active());
  State().deferred.push_back(std::move(fn));
}

}  // namespace resest
