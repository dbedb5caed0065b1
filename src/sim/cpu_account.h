// CPU-time accounting for background daemons.
//
// The simulated app runs with as many threads as the machine has cores (the
// paper stresses all 20 cores), so daemon CPU time displaces app progress.
// Each daemon charges its busy time here; at the end of a run the engine
// inflates app time by the daemons' aggregate core share.

#ifndef MEMTIS_SIM_SRC_SIM_CPU_ACCOUNT_H_
#define MEMTIS_SIM_SRC_SIM_CPU_ACCOUNT_H_

#include <array>
#include <cstdint>

namespace memtis {

enum class DaemonKind : uint8_t {
  kSampler = 0,   // ksampled / HeMem sampling thread
  kMigrator = 1,  // kmigrated / background migration
  kScanner = 2,   // page-table scanning daemons
  kCount = 3,
};

class CpuAccount {
 public:
  void Charge(DaemonKind kind, uint64_t ns) { busy_[static_cast<int>(kind)] += ns; }

  uint64_t busy(DaemonKind kind) const { return busy_[static_cast<int>(kind)]; }

  uint64_t total_busy() const {
    uint64_t sum = 0;
    for (uint64_t b : busy_) {
      sum += b;
    }
    return sum;
  }

  // Fraction of one core a daemon used over `elapsed_ns` of virtual time.
  double core_share(DaemonKind kind, uint64_t elapsed_ns) const {
    return elapsed_ns == 0 ? 0.0
                           : static_cast<double>(busy(kind)) /
                                 static_cast<double>(elapsed_ns);
  }

  // JSON field list (src/common/json_fields.h).
  template <class V>
  void VisitFields(V& v) {
    v.Field("sampler_ns", busy_[static_cast<int>(DaemonKind::kSampler)]);
    v.Field("migrator_ns", busy_[static_cast<int>(DaemonKind::kMigrator)]);
    v.Field("scanner_ns", busy_[static_cast<int>(DaemonKind::kScanner)]);
    v.Derived("total_busy_ns", [this] { return total_busy(); });
  }

 private:
  std::array<uint64_t, static_cast<int>(DaemonKind::kCount)> busy_{};
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_CPU_ACCOUNT_H_
