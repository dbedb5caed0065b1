// One state list per component: snapshot save and load both walk it.
//
// A component a snapshot captures lists its mutable state once, in
//
//   void VisitState(StateCodec& c);
//
// A StateCodec wraps either a StateWriter (save) or a StateReader (load), so
// the one list serves both directions — and TieringPolicy and Workload need
// one virtual hook, not a save/load pair. A new field goes into its
// component's list and nowhere else; the two directions cannot drift apart.
//
// The codec accepts every field kind of the JSON field visitor
// (src/common/json_fields.h), so a record with a VisitFields list — Metrics,
// AuditReport, EpochSample, TlbStats, ... — goes into a snapshot through the
// same list the result sinks walk. Keys are not stored. In binary:
//
//   Field          fixed-width little-endian by the member's type; doubles as
//                  their IEEE-754 bits, strings length-prefixed
//   Derived        skipped both ways
//   Mapped         get() is stored; a load hands the stored value to set()
//                  (only while the stream is still valid)
//   Record/Object  the nested list, inline; a component nested this way
//                  contributes its VisitState
//   Array          a resizable container: its size, then the elements; a
//                  fixed-size one (std::array, C array, std::span over a
//                  vector sized by configuration): the elements alone; a map:
//                  its size, then key/value pairs
//   WriteIf        always entered: a snapshot carries every block
//
// and the kinds only snapshots need:
//
//   c.Section(tag)            layout marker (StateWriter::Section)
//   c.Check(key, value)       configuration: stored on save, compared on load;
//                             a mismatch fails the load
//   n = c.Count(key, n, max)  a size the caller allocates by; a load rejects
//                             one above `max` before anything is allocated
//   c.Enum(key, e, limit)     an enum, rejected on load unless below `limit`
//   c.Region(key, base, bytes) a workload region's start address, stored as
//                             a Field; a load that was handed the restored
//                             address space (CheckRegionsWith) fails unless
//                             a live region of at least `bytes` starts there
//
// Sizes an Array reads are bounded the same way, by the bytes left in the
// stream over the least an element can take. A failed load latches the
// reader (StateReader's rules); the components are then unusable and the
// caller rebuilds them.

#ifndef MEMTIS_SIM_SRC_SNAPSHOT_STATE_CODEC_H_
#define MEMTIS_SIM_SRC_SNAPSHOT_STATE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/snapshot/serializer.h"

namespace memtis {

class StateCodec {
 public:
  explicit StateCodec(StateWriter& w) : w_(&w) {}
  explicit StateCodec(StateReader& r) : r_(&r) {}

  bool loading() const { return r_ != nullptr; }
  // False once a load has failed (always true while saving).
  bool ok() const { return r_ == nullptr || r_->ok(); }
  void Fail() {
    if (r_ != nullptr) r_->Fail();
  }

  // --- The JSON visitor's kinds ----------------------------------------------

  template <class T>
  void Field(std::string_view, T& value) {
    Value(value);
  }
  template <class Getter>
  void Derived(std::string_view, Getter&&) {}
  template <class Getter, class Setter>
  void Mapped(std::string_view, Getter&& get, Setter&& set) {
    using Raw = std::conditional_t<
        std::is_convertible_v<decltype(get()), std::string_view>, std::string,
        std::decay_t<decltype(get())>>;
    if (!loading()) {
      Raw raw(get());
      Value(raw);
      return;
    }
    Raw raw{};
    Value(raw);
    if (ok()) set(std::move(raw));
  }
  template <class R>
  void Record(std::string_view, R& record) {
    Value(record);
  }
  template <class R>
  void RequiredRecord(std::string_view, R& record) {
    Value(record);
  }
  template <class Fn>
  void Object(std::string_view, Fn&& fn) {
    fn(*this);
  }
  template <class C>
  void Array(std::string_view, C&& container) {
    Elements(container);
  }
  bool WriteIf(bool) const { return true; }

  // --- Snapshot-only kinds ---------------------------------------------------

  void Section(uint32_t tag) {
    if (loading()) {
      r_->Section(tag);
    } else {
      w_->Section(tag);
    }
  }
  template <class T>
  void Check(std::string_view, const T& expected) {
    T stored = expected;
    Value(stored);
    if (!(stored == expected)) Fail();
  }
  uint64_t Count(std::string_view, uint64_t n, uint64_t max) {
    if (!loading()) {
      w_->U64(n);
      return n;
    }
    n = r_->U64();
    if (n > max) {
      Fail();
      return 0;
    }
    return n;
  }
  template <class E>
  void Enum(std::string_view, E& value, std::underlying_type_t<E> limit) {
    auto raw = static_cast<std::underlying_type_t<E>>(value);
    Value(raw);
    if (raw >= limit) {
      Fail();
    } else {
      value = static_cast<E>(raw);
    }
  }
  void Region(std::string_view, uint64_t& base, uint64_t bytes) {
    Value(base);
    if (loading() && region_check_ && ok() && !region_check_(base, bytes)) {
      Fail();
    }
  }
  // The restored address space Region() checks against: true when a live
  // region of at least `bytes` starts at `base`.
  void CheckRegionsWith(std::function<bool(uint64_t base, uint64_t bytes)> fn) {
    region_check_ = std::move(fn);
  }

 private:
  template <class T>
  void Value(T& value) {
    static_assert(!std::is_enum_v<T>, "enums go through Enum(), range-checked");
    if constexpr (std::is_same_v<T, bool>) {
      loading() ? void(value = r_->Bool()) : w_->Bool(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      loading() ? void(value = static_cast<T>(r_->F64())) : w_->F64(value);
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      if (loading()) {
        value = static_cast<T>(ReadUint<U>());
      } else {
        WriteUint(static_cast<U>(value));
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      loading() ? void(value = r_->Str()) : w_->Str(value);
    } else if constexpr (requires { value.VisitState(*this); }) {
      value.VisitState(*this);
    } else if constexpr (requires { value.VisitFields(*this); }) {
      value.VisitFields(*this);
    } else {
      Elements(value);
    }
  }

  template <class U>
  U ReadUint() {
    if constexpr (sizeof(U) == 1) return r_->U8();
    if constexpr (sizeof(U) == 2) return r_->U16();
    if constexpr (sizeof(U) == 4) return r_->U32();
    if constexpr (sizeof(U) == 8) return r_->U64();
  }
  template <class U>
  void WriteUint(U v) {
    if constexpr (sizeof(U) == 1) w_->U8(v);
    if constexpr (sizeof(U) == 2) w_->U16(v);
    if constexpr (sizeof(U) == 4) w_->U32(v);
    if constexpr (sizeof(U) == 8) w_->U64(v);
  }

  // The fewest bytes an element of type T takes: a default-constructed one
  // encoded (empty containers and strings, fixed-size parts in full).
  template <class T>
  static uint64_t MinBytes() {
    static const uint64_t bytes = [] {
      T sample{};
      StateWriter w;
      StateCodec c(w);
      c.Value(sample);
      return w.data().empty() ? uint64_t{1} : uint64_t{w.data().size()};
    }();
    return bytes;
  }

  template <class C>
  void Elements(C& container) {
    if constexpr (requires { typename C::mapped_type; }) {
      using K = typename C::key_type;
      using V = typename C::mapped_type;
      const uint64_t n = Count(
          "size", container.size(),
          loading() ? r_->remaining() / (MinBytes<K>() + MinBytes<V>()) : 0);
      if (!loading()) {
        for (auto& [key, value] : container) {
          K k = key;
          Value(k);
          Value(value);
        }
        return;
      }
      container.clear();
      for (uint64_t i = 0; i < n && ok(); ++i) {
        K k{};
        V v{};
        Value(k);
        Value(v);
        container.emplace(std::move(k), std::move(v));
      }
    } else {
      using E = std::remove_cvref_t<std::ranges::range_reference_t<C>>;
      if constexpr (requires { container.resize(size_t{}); }) {
        const uint64_t n =
            Count("size", container.size(),
                  loading() ? r_->remaining() / MinBytes<E>() : 0);
        if (loading()) {
          container.clear();
          container.resize(n);
        }
      }
      if constexpr (std::ranges::contiguous_range<C> && std::is_arithmetic_v<E> &&
                    !std::is_same_v<E, bool> &&
                    std::endian::native == std::endian::little) {
        // Little-endian fixed-width elements are their own encoding.
        const size_t bytes = std::ranges::size(container) * sizeof(E);
        if (loading()) {
          r_->Bytes(std::ranges::data(container), bytes);
        } else {
          w_->Bytes(std::ranges::data(container), bytes);
        }
      } else {
        for (auto& element : container) {
          Value(element);
          if (!ok()) break;
        }
      }
    }
  }

  StateWriter* w_ = nullptr;
  StateReader* r_ = nullptr;
  std::function<bool(uint64_t, uint64_t)> region_check_;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SNAPSHOT_STATE_CODEC_H_
