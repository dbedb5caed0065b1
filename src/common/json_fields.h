// One field list per record: the JSON encoder and decoder both walk it.
//
// A record that crosses a JSON transport (the sinks, the supervisor pipe, the
// --resume manifest, the socket wire) lists its fields once, in a member
//
//   template <class V> void VisitFields(V& v);
//
// JsonFieldWriter walks that list to encode and JsonFieldReader walks it to
// decode, so a new field is added in exactly one place — its record's
// VisitFields — and the two directions cannot drift apart. Snapshot payloads
// walk the same list in binary (StateCodec, src/snapshot/state_codec.h).
// The field kinds:
//
//   v.Field(key, member)          a scalar: integer, double, bool or string
//   v.Derived(key, get)           written as get(), skipped on read (ratios,
//                                 totals, constants recomputed from the rest)
//   v.Mapped(key, get, set)       written as get(), read back through set(raw)
//                                 (enum names, values written resolved)
//   v.Record(key, member)         a nested record with its own VisitFields
//   v.RequiredRecord(key, member) the same, but a read fails when it is absent
//   v.Object(key, fn)             a nested object whose fields fn(v) lists
//   v.Array(key, container)       an array of scalars or of records
//   if (v.WriteIf(cond)) { ... }  a block written only when cond holds (kept
//                                 out of documents that predate it); the
//                                 reader always enters it, so an omitted
//                                 block reads back as its defaults
//
// A block guarded by a flag listed earlier (is_memtis, audited, ok) is a
// plain `if`: the reader has decoded the flag by then, so both directions
// take the same branch.
//
// Writing is byte-for-byte what the JsonWriter calls in the list's order
// emit. Reading starts from a default-constructed record and is lenient on
// presence but strict on kind: an absent field keeps its default, a present
// field of the wrong JSON kind (or a nested record that is not an object,
// an array that is not an array) fails the whole read. Unknown keys are
// ignored, so envelopes can carry a record's fields beside their own.

#ifndef MEMTIS_SIM_SRC_COMMON_JSON_FIELDS_H_
#define MEMTIS_SIM_SRC_COMMON_JSON_FIELDS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/json.h"
#include "src/common/json_parse.h"

namespace memtis {
namespace json_fields_internal {

// Scalars go out as bare values; everything else is a record.
template <class T>
inline constexpr bool kIsScalar =
    std::is_arithmetic_v<T> || std::is_same_v<T, std::string>;

// The type a scalar reads back as: strings decode into std::string.
template <class T>
using Stored = std::conditional_t<std::is_convertible_v<T, std::string_view>,
                                  std::string, std::decay_t<T>>;

}  // namespace json_fields_internal

class JsonFieldWriter {
 public:
  // Writes into `w`. Fields named `omit` are left out at every depth (the
  // sinks' compact documents drop Metrics' "timeline" this way).
  explicit JsonFieldWriter(JsonWriter& w, std::string_view omit = {})
      : w_(w), omit_(omit) {}

  template <class T>
  void Field(std::string_view key, const T& value) {
    if (Key(key)) Put(value);
  }
  template <class Getter>
  void Derived(std::string_view key, Getter&& get) {
    if (Key(key)) Put(get());
  }
  template <class Getter, class Setter>
  void Mapped(std::string_view key, Getter&& get, Setter&&) {
    if (Key(key)) Put(get());
  }
  template <class R>
  void Record(std::string_view key, R& record) {
    if (Key(key)) Encode(record);
  }
  template <class R>
  void RequiredRecord(std::string_view key, R& record) {
    Record(key, record);
  }
  template <class Fn>
  void Object(std::string_view key, Fn&& fn) {
    if (!Key(key)) return;
    w_.BeginObject();
    fn(*this);
    w_.EndObject();
  }
  template <class C>
  void Array(std::string_view key, C& container) {
    if (!Key(key)) return;
    w_.BeginArray();
    for (auto& element : container) {
      if constexpr (json_fields_internal::kIsScalar<
                        std::decay_t<decltype(element)>>) {
        Put(element);
      } else {
        Encode(element);
      }
    }
    w_.EndArray();
  }
  bool WriteIf(bool cond) const { return cond; }

  // The record as one JSON object.
  template <class R>
  void Encode(R& record) {
    w_.BeginObject();
    record.VisitFields(*this);
    w_.EndObject();
  }

 private:
  bool Key(std::string_view key) {
    if (key == omit_) return false;
    w_.Key(key);
    return true;
  }
  template <class T>
  void Put(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.Bool(value);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      w_.String(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      w_.Double(value);
    } else if constexpr (std::is_signed_v<T>) {
      w_.Int(value);
    } else {
      w_.Uint(value);
    }
  }

  JsonWriter& w_;
  std::string_view omit_;
};

class JsonFieldReader {
 public:
  // Reads fields out of `object` (a JSON object); a failed read clears *ok.
  JsonFieldReader(const JsonValue& object, bool* ok)
      : object_(object), ok_(ok) {}

  template <class T>
  void Field(std::string_view key, T& value) {
    if (const JsonValue* v = Find(key)) Read(*v, value);
  }
  template <class Getter>
  void Derived(std::string_view, Getter&&) {}
  template <class Getter, class Setter>
  void Mapped(std::string_view key, Getter&&, Setter&& set) {
    json_fields_internal::Stored<decltype(std::declval<Getter&>()())> raw{};
    if (const JsonValue* v = Find(key); v != nullptr && Read(*v, raw)) set(raw);
  }
  template <class R>
  void Record(std::string_view key, R& record) {
    if (const JsonValue* v = Find(key)) Decode(*v, record);
  }
  template <class R>
  void RequiredRecord(std::string_view key, R& record) {
    if (const JsonValue* v = Find(key)) {
      Decode(*v, record);
    } else {
      *ok_ = false;
    }
  }
  template <class Fn>
  void Object(std::string_view key, Fn&& fn) {
    if (const JsonValue* v = Find(key)) Nested(*v, fn);
  }
  template <class C>
  void Array(std::string_view key, C& container) {
    const JsonValue* v = Find(key);
    if (v == nullptr) return;
    if (!v->is_array()) {
      *ok_ = false;
      return;
    }
    size_t n = v->size();
    if constexpr (requires { container.resize(n); }) {
      container.clear();
      container.resize(n);
    } else {  // fixed-size: the leading elements
      n = n < container.size() ? n : container.size();
    }
    for (size_t i = 0; i < n; ++i) {
      auto& element = container[i];
      if constexpr (json_fields_internal::kIsScalar<
                        std::decay_t<decltype(element)>>) {
        Read(v->at(i), element);
      } else {
        Decode(v->at(i), element);
      }
    }
  }
  bool WriteIf(bool) const { return true; }

  // Decodes `value` into `record`, which the caller has default-constructed.
  template <class R>
  void Decode(const JsonValue& value, R& record) {
    Nested(value, [&](JsonFieldReader& nested) { record.VisitFields(nested); });
  }

 private:
  // Members come back in the order the writer emitted them, so the search
  // starts where the previous hit left off.
  const JsonValue* Find(std::string_view key) {
    const auto& members = object_.members();
    const size_t n = members.size();
    for (size_t step = 0, i = cursor_; step < n; ++step, ++i) {
      if (i == n) i = 0;
      if (members[i].first == key) {
        cursor_ = i + 1;
        return &members[i].second;
      }
    }
    return nullptr;
  }
  template <class Fn>
  void Nested(const JsonValue& value, Fn&& fn) {
    if (!value.is_object()) {
      *ok_ = false;
      return;
    }
    JsonFieldReader nested(value, ok_);
    fn(nested);
  }
  template <class T>
  bool Read(const JsonValue& v, T& out) {
    constexpr bool kBool = std::is_same_v<T, bool>;
    constexpr bool kString = std::is_same_v<T, std::string>;
    if (!(kBool ? v.is_bool() : kString ? v.is_string() : v.is_number())) {
      *ok_ = false;
      return false;
    }
    if constexpr (kBool) {
      out = v.AsBool();
    } else if constexpr (kString) {
      out = v.AsString();
    } else if constexpr (std::is_floating_point_v<T>) {
      out = static_cast<T>(v.AsDouble());
    } else if constexpr (std::is_signed_v<T>) {
      out = static_cast<T>(v.AsInt());
    } else {
      out = static_cast<T>(v.AsUint());
    }
    return true;
  }

  const JsonValue& object_;
  bool* ok_;
  size_t cursor_ = 0;
};

// `record` as one JSON object into `w` (fields named `omit` left out).
template <class R>
void EncodeJson(JsonWriter& w, const R& record, std::string_view omit = {}) {
  // VisitFields serves both directions, so it is non-const; the writer only
  // reads through it.
  JsonFieldWriter(w, omit).Encode(const_cast<R&>(record));
}

// `record`'s fields into the object `w` has open (for envelopes that carry
// a record's fields beside their own).
template <class R>
void EncodeJsonFields(JsonWriter& w, const R& record) {
  JsonFieldWriter writer(w);
  const_cast<R&>(record).VisitFields(writer);
}

// Resets *out to R() and decodes `value` into it. False when `value` is not
// an object or any field present has the wrong kind.
template <class R>
bool DecodeJson(const JsonValue& value, R* out) {
  *out = R();
  bool ok = true;
  JsonFieldReader(value, &ok).Decode(value, *out);
  return ok;
}

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_JSON_FIELDS_H_
