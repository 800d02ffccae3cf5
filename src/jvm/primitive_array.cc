#include "jvm/primitive_array.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "support/error.h"

namespace s2fa::jvm {

namespace {

const char* StorageName(Storage s) {
  switch (s) {
    case Storage::kI32: return "int32";
    case Storage::kI64: return "int64";
    case Storage::kF32: return "float";
    case Storage::kF64: return "double";
  }
  return "?";
}

}  // namespace

PrimitiveArray::PrimitiveArray(Storage storage, std::size_t size) {
  AssignZero(storage, size);
}

PrimitiveArray::PrimitiveArray(std::initializer_list<Value> values) {
  for (const Value& v : values) push_back(v);
}

PrimitiveArray& PrimitiveArray::operator=(const PrimitiveArray& other) {
  if (this != &other) {
    AssignZero(other.storage_, 0);
    Append(other);
  }
  return *this;
}

void PrimitiveArray::ClassMismatch(Storage wanted) const {
  throw InternalError(std::string("array holds ") + StorageName(storage()) +
                      " elements, not " + StorageName(wanted));
}

void PrimitiveArray::Reserve(std::size_t capacity) {
  if (capacity <= capacity_) return;
  S2FA_CHECK(capacity <= std::numeric_limits<std::uint32_t>::max(),
             "array of " << capacity << " elements is too large");
  const std::size_t bytes = BytesOf(storage_);
  void* grown = ::operator new(capacity * bytes);
  if (size_ > 0) std::memcpy(grown, data(), size_ * bytes);
  FreeHeap();
  heap_ = grown;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void PrimitiveArray::AssignZero(Storage storage, std::size_t size) {
  // A new class gets a new allocation, so one allocation only ever holds
  // elements of one type.
  if (storage != storage_) Reset(storage);
  size_ = 0;
  Reserve(size);
  if (size > 0) std::memset(data(), 0, size * BytesOf(storage_));
  size_ = static_cast<std::uint32_t>(size);
}

void PrimitiveArray::Convert(Storage storage) {
  PrimitiveArray converted(storage);
  converted.Append(*this);
  *this = std::move(converted);
}

void PrimitiveArray::Append(const PrimitiveArray& src) {
  const std::size_t count = src.size();
  const std::size_t at = size_;
  if (at + count > capacity_) Reserve(std::max(at + count, 2 * at));
  size_ = static_cast<std::uint32_t>(at + count);
  CopyRange(src, 0, count, at);
}

void PrimitiveArray::CopyRange(const PrimitiveArray& src, std::size_t begin,
                               std::size_t count, std::size_t dst) {
  S2FA_CHECK(begin <= src.size() && count <= src.size() - begin &&
                 dst <= size() && count <= size() - dst,
             "copy range past an array's end");
  if (count == 0) return;
  if (src.storage_ == storage_) {
    const std::size_t bytes = BytesOf(storage_);
    std::memmove(static_cast<std::byte*>(data()) + dst * bytes,
                 static_cast<const std::byte*>(src.data()) + begin * bytes,
                 count * bytes);
    return;
  }
  WithStorage(storage_, [&](auto to_zero) {
    using To = decltype(to_zero);
    To* to = static_cast<To*>(data()) + dst;
    WithStorage(src.storage_, [&](auto from_zero) {
      using From = decltype(from_zero);
      const From* from = static_cast<const From*>(src.data()) + begin;
      for (std::size_t e = 0; e < count; ++e) {
        to[e] = java::Cast<To>(from[e]);
      }
    });
  });
}

const Value PrimitiveArray::operator[](std::size_t i) const {
  return WithStorage(storage_, [&](auto zero) {
    using T = decltype(zero);
    return ToValue(static_cast<const T*>(data())[i]);
  });
}

const Value PrimitiveArray::at(std::size_t i) const {
  S2FA_CHECK(i < size(), "array index " << i << " past size " << size());
  return (*this)[i];
}

void PrimitiveArray::Set(std::size_t i, const Value& value) {
  S2FA_CHECK(i < size(), "array index " << i << " past size " << size());
  WithStorage(storage_, [&](auto zero) {
    using T = decltype(zero);
    static_cast<T*>(data())[i] = FromValue<T>(value);
  });
}

void PrimitiveArray::assign(std::size_t n, const Value& value) {
  AssignZero(StorageOf(value), n);
  WithStorage(storage_, [&](auto zero) {
    using T = decltype(zero);
    std::fill_n(static_cast<T*>(data()), n, FromValue<T>(value));
  });
}

void PrimitiveArray::reserve(std::size_t n) { Reserve(n); }

bool operator==(const PrimitiveArray& a, const PrimitiveArray& b) {
  if (a.storage_ != b.storage_ || a.size_ != b.size_) return false;
  return WithStorage(a.storage_, [&](auto zero) {
    using T = decltype(zero);
    return std::equal(a.values<T>().begin(), a.values<T>().end(),
                      b.values<T>().begin());
  });
}

std::vector<Value> ToValues(const PrimitiveArray& array) {
  std::vector<Value> out;
  out.reserve(array.size());
  WithStorage(array.storage(), [&](auto zero) {
    using T = decltype(zero);
    for (T v : array.values<T>()) out.push_back(ToValue(v));
  });
  return out;
}

PrimitiveArray FromValues(Storage storage, const std::vector<Value>& values) {
  PrimitiveArray out(storage, values.size());
  WithStorage(storage, [&](auto zero) {
    using T = decltype(zero);
    T* typed = out.values<T>().data();
    for (std::size_t e = 0; e < values.size(); ++e) {
      typed[e] = FromValue<T>(values[e]);
    }
  });
  return out;
}

}  // namespace s2fa::jvm
