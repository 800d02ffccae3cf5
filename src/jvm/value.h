// Runtime values and heap objects for the bytecode interpreter.
//
// Values follow JVM stack semantics: booleans/bytes/chars/shorts are widened
// to int on the operand stack; references are handles into a Heap owned by
// the interpreter. The Heap is an arena of objects (arrays or class
// instances) addressed by index; handle 0 is null.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "jvm/type.h"
#include "support/error.h"

namespace s2fa::jvm {

// Opaque reference handle; 0 is null.
using Ref = std::uint32_t;
inline constexpr Ref kNullRef = 0;

// One operand-stack / local-variable slot value.
class Value {
 public:
  Value() : repr_(std::int32_t{0}) {}
  static Value OfInt(std::int32_t v) { return Value(v); }
  static Value OfLong(std::int64_t v) { return Value(v); }
  static Value OfFloat(float v) { return Value(v); }
  static Value OfDouble(double v) { return Value(v); }
  static Value OfRef(Ref r) { return Value(r); }

  bool is_int() const { return std::holds_alternative<std::int32_t>(repr_); }
  bool is_long() const { return std::holds_alternative<std::int64_t>(repr_); }
  bool is_float() const { return std::holds_alternative<float>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_ref() const { return std::holds_alternative<Ref>(repr_); }

  std::int32_t AsInt() const { return Get<std::int32_t>("int"); }
  std::int64_t AsLong() const { return Get<std::int64_t>("long"); }
  float AsFloat() const { return Get<float>("float"); }
  double AsDouble() const { return Get<double>("double"); }
  Ref AsRef() const { return Get<Ref>("reference"); }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }

 private:
  template <typename T>
  explicit Value(T v) : repr_(v) {}

  template <typename T>
  T Get(const char* want) const {
    const T* p = std::get_if<T>(&repr_);
    if (p == nullptr) {
      throw InternalError(std::string("value is not a ") + want + ": " +
                          ToString());
    }
    return *p;
  }

  std::variant<std::int32_t, std::int64_t, float, double, Ref> repr_;
};

// A heap object: either a primitive/reference array or a class instance
// with named fields.
struct Object {
  enum class Kind { kArray, kInstance };
  Kind kind = Kind::kArray;
  Type type;                   // array type or class type
  std::vector<Value> slots;    // array elements or field values (field order)
};

// Arena of objects. Objects are never collected: kernels in the s2fa
// programming model allocate constant-size buffers only (paper §3.3), so a
// bump arena reproduces JVM allocation without a collector.
class Heap {
 public:
  Heap() { objects_.emplace_back(); }  // slot 0 = null sentinel

  // Allocates a primitive/reference array of `length` default elements.
  Ref NewArray(const Type& array_type, std::size_t length);

  // Allocates a class instance with `num_fields` default-initialized fields.
  Ref NewInstance(const Type& class_type, std::size_t num_fields);

  Object& Get(Ref ref);
  const Object& Get(Ref ref) const;

  std::size_t size() const { return objects_.size() - 1; }

 private:
  std::vector<Object> objects_;
};

// Default (zero) value of a given element type.
Value DefaultValue(const Type& type);

// A number boxed as its own class.
inline Value ToValue(std::int32_t v) { return Value::OfInt(v); }
inline Value ToValue(std::int64_t v) { return Value::OfLong(v); }
inline Value ToValue(float v) { return Value::OfFloat(v); }
inline Value ToValue(double v) { return Value::OfDouble(v); }

}  // namespace s2fa::jvm
