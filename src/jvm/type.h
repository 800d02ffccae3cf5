// JVM-style type descriptors.
//
// s2fa consumes kernels at the bytecode level (the layer scalac lowers to),
// so the type system mirrors JVM descriptors: primitive kinds, reference
// arrays, and named classes (Tuple2, user kernel classes). Types are small
// value objects compared structurally: a kind plus, for an array or a
// class, one shared immutable record of the element type or class name, so
// a primitive type copies without touching a string or a reference count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/error.h"

namespace s2fa::jvm {

enum class TypeKind {
  kVoid,
  kBoolean,
  kByte,
  kChar,
  kShort,
  kInt,
  kLong,
  kFloat,
  kDouble,
  kArray,   // element type attached
  kClass,   // class name attached
};

class Type {
 public:
  Type() : kind_(TypeKind::kVoid) {}

  static Type Void() { return Type(TypeKind::kVoid); }
  static Type Boolean() { return Type(TypeKind::kBoolean); }
  static Type Byte() { return Type(TypeKind::kByte); }
  static Type Char() { return Type(TypeKind::kChar); }
  static Type Short() { return Type(TypeKind::kShort); }
  static Type Int() { return Type(TypeKind::kInt); }
  static Type Long() { return Type(TypeKind::kLong); }
  static Type Float() { return Type(TypeKind::kFloat); }
  static Type Double() { return Type(TypeKind::kDouble); }
  static Type Array(const Type& element);
  static Type Class(std::string name);

  TypeKind kind() const { return kind_; }
  bool is_void() const { return kind_ == TypeKind::kVoid; }
  bool is_primitive() const {
    return kind_ != TypeKind::kVoid && kind_ != TypeKind::kArray &&
           kind_ != TypeKind::kClass;
  }
  bool is_array() const { return kind_ == TypeKind::kArray; }
  bool is_class() const { return kind_ == TypeKind::kClass; }
  bool is_reference() const { return is_array() || is_class(); }
  // Long and double occupy two JVM stack/local slots.
  bool is_wide() const {
    return kind_ == TypeKind::kLong || kind_ == TypeKind::kDouble;
  }
  bool is_integral() const {
    switch (kind_) {
      case TypeKind::kBoolean:
      case TypeKind::kByte:
      case TypeKind::kChar:
      case TypeKind::kShort:
      case TypeKind::kInt:
      case TypeKind::kLong:
        return true;
      default:
        return false;
    }
  }
  bool is_floating() const {
    return kind_ == TypeKind::kFloat || kind_ == TypeKind::kDouble;
  }

  // Element type; requires is_array().
  const Type& element() const;

  // Class name; requires is_class().
  const std::string& class_name() const;

  // Storage width in bits of one element of this primitive type.
  int bit_width() const;

  // JVM descriptor string, e.g. "I", "[F", "LTuple2;".
  std::string Descriptor() const;

  // Human-readable form, e.g. "int", "float[]", "Tuple2".
  std::string ToString() const;

  friend bool operator==(const Type& a, const Type& b);
  friend bool operator!=(const Type& a, const Type& b) { return !(a == b); }

 private:
  // The element type of an array or the name of a class (never both).
  struct Ref;

  explicit Type(TypeKind kind) : kind_(kind) {}

  TypeKind kind_;
  std::shared_ptr<const Ref> ref_;  // null for void and primitives
};

// Every Column and kernel field carries a Type, so it stays a kind and one
// pointer pair: growth here grows every served record's column.
static_assert(sizeof(Type) <= 24, "jvm::Type grew past 24 bytes");

// Parses a JVM descriptor ("I", "[[D", "LTuple2;"); throws MalformedInput.
Type ParseDescriptor(const std::string& descriptor);

// Method signature: parameter and return types.
struct MethodSignature {
  std::vector<Type> params;
  Type ret;

  // JVM method descriptor, e.g. "(I[F)F".
  std::string Descriptor() const;
};

}  // namespace s2fa::jvm
