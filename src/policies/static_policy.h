// StaticPolicy: no tiering at all — everything lives on one tier.
//
// all-capacity + THP is the paper's normalisation baseline ("all-NVM");
// all-fast gives the all-DRAM reference lines of Fig. 7/8.

#ifndef MEMTIS_SIM_SRC_POLICIES_STATIC_POLICY_H_
#define MEMTIS_SIM_SRC_POLICIES_STATIC_POLICY_H_

#include "src/sim/policy.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

class StaticPolicy : public TieringPolicy {
 public:
  explicit StaticPolicy(TierId target, bool use_thp = true)
      : target_(target), use_thp_(use_thp) {}

  std::string_view name() const override {
    return target_ == TierId::kFast ? "all-fast" : "all-capacity";
  }

  void OnAccess(PolicyContext& ctx, PageIndex index, PageInfo& page,
                const Access& access) override {
    (void)ctx;
    (void)index;
    (void)page;
    (void)access;
  }

  // Batched replay: OnAccess is a no-op, so every access absorbs.
  uint64_t RunAbsorbLimit(PolicyContext& ctx, bool is_write) override {
    (void)ctx;
    (void)is_write;
    return kAbsorbAll;
  }

  AllocOptions PlacementFor(PolicyContext& ctx, uint64_t bytes, bool use_thp) override {
    (void)ctx;
    (void)bytes;
    return AllocOptions{.preferred = target_,
                        .allow_other_tier = true,
                        .use_thp = use_thp && use_thp_};
  }

  // Stateless: the section marker alone keeps the snapshot layout checked.
  void VisitState(StateCodec& c) override { c.Section(0x53544154u); }

 private:
  TierId target_;
  bool use_thp_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_POLICIES_STATIC_POLICY_H_
