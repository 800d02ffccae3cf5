// Typed primitive arrays: the one data representation of the served path.
//
// Every primitive value lives in one of four storage classes: int32
// (boolean, byte, char, short and int, widened as on the JVM operand
// stack), int64, float and double. A PrimitiveArray is one contiguous array
// of a single class. Blaze columns hold their records in one, and the
// kernel evaluator's device buffers are PrimitiveArrays too, so records
// move between the two by block copy, 4 or 8 bytes per element.
//
// An array is 24 bytes. Up to 8 bytes of elements (two int32 or float,
// one int64 or double) are stored inline, in the bytes that otherwise
// hold the heap pointer, so the one-element columns of a streamed record
// allocate nothing. Inline elements move with the array: a pointer from
// raw() or values<T>() lasts until the array is moved, not only until it
// grows.
//
// A boxed Value appears only at the JVM boundary (the interpreter, the
// reference evaluator, test oracles), and only through FromValue below and
// ToValue (value.h). The array's Value-level surface -- push_back, assign, operator[],
// at, range-for -- is that boundary: it converts per element, so hot code
// uses the typed accessors (values<T>(), Append, CopyRange) instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "jvm/java_numeric.h"
#include "jvm/type.h"
#include "jvm/value.h"
#include "support/error.h"

namespace s2fa::jvm {

// The storage class of a primitive value.
enum class Storage : std::uint8_t { kI32, kI64, kF32, kF64 };

// Bytes per element of a storage class.
inline std::size_t BytesOf(Storage s) {
  return s == Storage::kI32 || s == Storage::kF32 ? 4 : 8;
}

// The storage class of a primitive type; throws MalformedInput otherwise.
inline Storage StorageOf(TypeKind kind) {
  switch (kind) {
    case TypeKind::kBoolean:
    case TypeKind::kByte:
    case TypeKind::kChar:
    case TypeKind::kShort:
    case TypeKind::kInt:
      return Storage::kI32;
    case TypeKind::kLong:
      return Storage::kI64;
    case TypeKind::kFloat:
      return Storage::kF32;
    case TypeKind::kDouble:
      return Storage::kF64;
    default:
      throw MalformedInput("non-primitive type has no storage class");
  }
}
inline Storage StorageOf(const Type& type) { return StorageOf(type.kind()); }

// The storage class a boxed value carries; throws InternalError for a
// reference.
inline Storage StorageOf(const Value& value) {
  if (value.is_int()) return Storage::kI32;
  if (value.is_long()) return Storage::kI64;
  if (value.is_float()) return Storage::kF32;
  if (value.is_double()) return Storage::kF64;
  throw InternalError("a reference has no storage class: " +
                      value.ToString());
}

// Calls f(T{}) with T the element type of storage class `s`.
template <typename F>
decltype(auto) WithStorage(Storage s, F&& f) {
  switch (s) {
    case Storage::kI32: return f(std::int32_t{});
    case Storage::kI64: return f(std::int64_t{});
    case Storage::kF32: return f(float{});
    case Storage::kF64: break;
  }
  return f(double{});
}

// The conversion between boxed and stored values. FromValue reads `v` as
// T, converting a value of another class as Java does (java::Cast);
// ToValue (value.h) boxes a stored element as its own class.
template <typename T>
T FromValue(const Value& v) {
  if (v.is_int()) return java::Cast<T>(v.AsInt());
  if (v.is_long()) return java::Cast<T>(v.AsLong());
  if (v.is_float()) return java::Cast<T>(v.AsFloat());
  return java::Cast<T>(v.AsDouble());
}

class PrimitiveArray {
 public:
  // Range-for over the Value-level view yields `const Value`.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = const Value;

    const_iterator(const PrimitiveArray* array, std::size_t index)
        : array_(array), index_(index) {}
    const Value operator*() const { return (*array_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const PrimitiveArray* array_;
    std::size_t index_;
  };

  // An empty int32 array. An empty array takes the class of the first
  // Value stored into it through push_back or assign.
  PrimitiveArray() = default;
  // `size` zeros of class `storage`.
  explicit PrimitiveArray(Storage storage, std::size_t size = 0);
  PrimitiveArray(std::initializer_list<Value> values);
  PrimitiveArray(const PrimitiveArray& other)
      : PrimitiveArray(other, 0, other.size()) {}
  // A copy of src[begin, begin + count), in src's class.
  PrimitiveArray(const PrimitiveArray& src, std::size_t begin,
                 std::size_t count)
      : storage_(src.storage_) {
    S2FA_CHECK(begin <= src.size() && count <= src.size() - begin,
               "copy range past the source array");
    const std::size_t bytes = BytesOf(storage_);
    capacity_ = InlineCapacity(storage_);
    void* to = inline_;
    if (count > capacity_) {
      to = heap_ = ::operator new(count * bytes);
      capacity_ = static_cast<std::uint32_t>(count);
    }
    if (count > 0) {
      std::memcpy(to, static_cast<const std::byte*>(src.data()) + begin * bytes,
                  count * bytes);
    }
    size_ = static_cast<std::uint32_t>(count);
  }
  PrimitiveArray(PrimitiveArray&& other) noexcept { Steal(other); }
  PrimitiveArray& operator=(const PrimitiveArray& other);
  PrimitiveArray& operator=(PrimitiveArray&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      Steal(other);
    }
    return *this;
  }
  ~PrimitiveArray() { FreeHeap(); }

  Storage storage() const { return storage_; }
  std::size_t size() const { return size_; }

  // The typed elements; T must be the array's class (checked).
  template <typename T>
  std::span<T> values() {
    if (storage_ != StorageOfElement<T>()) ClassMismatch(StorageOfElement<T>());
    return {static_cast<T*>(data()), size_};
  }
  template <typename T>
  std::span<const T> values() const {
    if (storage_ != StorageOfElement<T>()) ClassMismatch(StorageOfElement<T>());
    return {static_cast<const T*>(data()), size_};
  }
  // The first element's address, untyped (device-buffer binding); valid
  // until the array grows or is moved.
  void* raw() { return data(); }
  const void* raw() const { return data(); }

  // Becomes `size` zeros of class `storage`, keeping the allocation when
  // the class is unchanged and it is large enough.
  void AssignZero(Storage storage, std::size_t size);
  // Converts every element to `storage` (a no-op when it already is).
  void ConvertTo(Storage storage) {
    if (storage_ != storage) Convert(storage);
  }
  // Appends all of src, converting when the classes differ (a block copy
  // when they agree).
  void Append(const PrimitiveArray& src);
  // Overwrites this[dst, dst + count) with src[begin, begin + count),
  // converting when the classes differ. Both ranges must be in bounds.
  void CopyRange(const PrimitiveArray& src, std::size_t begin,
                 std::size_t count, std::size_t dst);

  // --- Value-level view (the JVM boundary; converts per element).
  // Returned by value, const so a stray `array[i] = v` does not compile.
  const Value operator[](std::size_t i) const;
  const Value at(std::size_t i) const;  // bounds-checked
  void Set(std::size_t i, const Value& v);
  void push_back(const Value& v) {
    const Storage s = StorageOf(v);
    if (size_ == 0 && storage_ != s) Reset(s);
    if (size_ == capacity_) Reserve(2 * std::size_t{size_});
    WithStorage(storage_, [&](auto zero) {
      using T = decltype(zero);
      static_cast<T*>(data())[size_] = FromValue<T>(v);
    });
    ++size_;
  }
  void assign(std::size_t n, const Value& v);
  void reserve(std::size_t n);
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  // The same class and elementwise == (so NaN != NaN and -0.0 == 0.0, as
  // for boxed values).
  friend bool operator==(const PrimitiveArray& a, const PrimitiveArray& b);

  template <typename T>
  static constexpr Storage StorageOfElement() {
    if constexpr (std::is_same_v<T, std::int32_t>) return Storage::kI32;
    else if constexpr (std::is_same_v<T, std::int64_t>) return Storage::kI64;
    else if constexpr (std::is_same_v<T, float>) return Storage::kF32;
    else {
      static_assert(std::is_same_v<T, double>, "not a storage class");
      return Storage::kF64;
    }
  }

 private:
  // Bytes of elements stored inline, in place of the heap pointer.
  static constexpr std::size_t kInlineBytes = 8;
  static std::uint32_t InlineCapacity(Storage s) {
    return static_cast<std::uint32_t>(kInlineBytes / BytesOf(s));
  }

  [[noreturn]] void ClassMismatch(Storage wanted) const;
  // An array is on the heap exactly when its capacity exceeds the inline
  // capacity of its class.
  bool on_heap() const { return capacity_ > InlineCapacity(storage_); }
  void* data() { return on_heap() ? heap_ : inline_; }
  const void* data() const { return on_heap() ? heap_ : inline_; }
  void FreeHeap() {
    if (on_heap()) ::operator delete(heap_);
  }
  // Releases any allocation and becomes inline storage of class `storage`
  // (size is left to the caller).
  void Reset(Storage storage) {
    FreeHeap();
    storage_ = storage;
    capacity_ = InlineCapacity(storage);
  }
  // Takes other's elements (its pointer or its inline bytes) and leaves it
  // empty and inline, in its class.
  void Steal(PrimitiveArray& other) {
    std::memcpy(inline_, other.inline_, kInlineBytes);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, InlineCapacity(other.storage_));
    storage_ = other.storage_;
  }
  void Convert(Storage storage);
  // Grows the capacity to at least `capacity` elements, keeping the
  // contents.
  void Reserve(std::size_t capacity);

  // 24 bytes, as a std::vector: a column stays as small as a boxed one
  // was. `capacity_` counts elements of the current class.
  union {
    void* heap_ = nullptr;
    alignas(8) std::byte inline_[kInlineBytes];
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineBytes / 4;  // inline int32
  Storage storage_ = Storage::kI32;
};

// Every column, device buffer and kernel scratch array is one of these:
// growth here grows every served record.
static_assert(sizeof(PrimitiveArray) == 24, "PrimitiveArray is not 24 bytes");

// The conversion applied to whole arrays, for the BufferMap adapters:
// every element boxed as its class, and `values` read into class
// `storage` with FromValue.
std::vector<Value> ToValues(const PrimitiveArray& array);
PrimitiveArray FromValues(Storage storage, const std::vector<Value>& values);

}  // namespace s2fa::jvm
