// Fixture: hot-no-alloc (whole-program; see common/hotpath.h).
//
// FxRootAlloc is a CPT_HOT root: everything it reaches transitively is held
// to the no-allocation rule.  FxColdRepair is CPT_COLD, so the traversal
// prunes there and its resize is fine; Table::spare_ is sanctioned by the
// reserve in Table::FxWarm, but that reserve reaches no other class's
// spare_ and a local's reserve reaches no other function.
#include <vector>

namespace fxhot {

struct Fill {
  int x;
};

struct Table {
  std::vector<int> slots_;
  std::vector<Fill> spare_;

  // BAD: unreserved growth on a hot path.
  void Insert(int v) {
    slots_.push_back(v);
  }

  // GOOD: the reserve here sanctions spare_ in every Table method.
  void FxWarm() {
    spare_.reserve(64);
  }

  // GOOD: reserved receiver.
  void Recycle(Fill f) {
    spare_.push_back(f);
  }
};

// BAD: a same-named member of another class; Table's reserve is no excuse.
struct Other {
  std::vector<int> spare_;
  void Grow(int v) { spare_.push_back(v); }
};

// GOOD: a local reserved and grown in the same function.
int FxLocalOk() {
  std::vector<int> buf;
  buf.reserve(4);
  buf.push_back(1);
  return buf.back();
}

// BAD: the same local name, but the reserve above is in another function.
int FxLocalBad() {
  std::vector<int> buf;
  buf.push_back(2);
  return buf.back();
}

// BAD: operator new behind one call level.
int* FxDeepAlloc() {
  return new int(7);
}

int FxMiddle(Table& t) {
  t.Insert(1);
  t.Recycle(Fill{2});
  return *FxDeepAlloc();
}

// GOOD: CPT_COLD prunes the traversal here (the repair path is OS work).
CPT_COLD void FxColdRepair(Table& t) {
  t.slots_.resize(1024);
}

// The hot root.  Calling the cold function is fine; its body is exempt.
CPT_HOT int FxRootAlloc(Table& t, Other& o) {
  FxColdRepair(t);
  o.Grow(3);
  return FxMiddle(t) + FxLocalOk() + FxLocalBad();
}

}  // namespace fxhot
