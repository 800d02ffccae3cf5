// Java's numeric semantics, in one place.
//
// Every stand-in that executes a kernel computes what the JVM computes:
// the bytecode interpreter, both kernel-IR evaluators and the typed
// arrays' class conversions all call these helpers, and none keeps a copy
// of the rules (JLS 4.2, 5.1.2-5.1.3, 15.15-15.19; java.lang.Math):
//
//  - int and long + - * and negation wrap modulo 2^32 / 2^64. They are
//    computed in the unsigned type of the same width, where the C++
//    operators would overflow.
//  - / truncates toward zero and % takes the dividend's sign; MIN / -1 is
//    MIN and MIN % -1 is 0. A zero divisor is each caller's to reject,
//    with its own error text.
//  - Shift counts keep their low 5 (int) or 6 (long) bits.
//  - Floating -> integral truncates toward zero and saturates: NaN gives
//    0, values past the target's range give its MIN or MAX. byte, char
//    and short saturate to int first, then narrow.
//  - Integral -> integral keeps the low bits (byte and short sign-extend,
//    char zero-extends); integral -> floating rounds once, to nearest.
//    boolean, which Java never converts to, takes C's rule: any nonzero
//    value is 1.
//  - Math.min and Math.max: on floating values NaN propagates and -0.0
//    orders below +0.0.
//
// Everything is inline, so the lane executor's loops compile each helper
// in place.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "jvm/type.h"
#include "jvm/value.h"
#include "support/error.h"

namespace s2fa::jvm::java {

// int, long and their unsigned twins: the only integral widths Java
// computes in.
template <typename T>
using Unsigned = std::enable_if_t<
    std::is_same_v<T, std::int32_t> || std::is_same_v<T, std::int64_t>,
    std::make_unsigned_t<T>>;

template <typename T>
T Add(T x, T y) {
  return static_cast<T>(static_cast<Unsigned<T>>(x) +
                        static_cast<Unsigned<T>>(y));
}

template <typename T>
T Sub(T x, T y) {
  return static_cast<T>(static_cast<Unsigned<T>>(x) -
                        static_cast<Unsigned<T>>(y));
}

template <typename T>
T Mul(T x, T y) {
  return static_cast<T>(static_cast<Unsigned<T>>(x) *
                        static_cast<Unsigned<T>>(y));
}

// Integral negation wraps (-MIN is MIN); floating negation flips the sign.
template <typename T>
T Neg(T x) {
  if constexpr (std::is_floating_point_v<T>) {
    return -x;
  } else {
    return Sub(T{0}, x);
  }
}

// y must be nonzero.
template <typename T>
T Div(T x, T y) {
  return y == -1 ? Neg(x) : x / y;
}

template <typename T>
T Rem(T x, T y) {
  return y == -1 ? 0 : x % y;
}

// The shift count's bits that count: 31 for int, 63 for long.
template <typename T>
inline constexpr int kShiftMask = sizeof(Unsigned<T>) == 8 ? 63 : 31;

template <typename T, typename N>
T Shl(T x, N n) {
  return static_cast<T>(static_cast<Unsigned<T>>(x) << (n & kShiftMask<T>));
}

template <typename T, typename N>
T Shr(T x, N n) {
  return x >> (n & kShiftMask<T>);
}

template <typename T, typename N>
T UShr(T x, N n) {
  return static_cast<T>(static_cast<Unsigned<T>>(x) >> (n & kShiftMask<T>));
}

template <typename T>
T Min(T x, T y) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(x) || std::isnan(y)) {
      return std::numeric_limits<T>::quiet_NaN();
    }
    if (x == y) return std::signbit(x) ? x : y;  // -0.0 before +0.0
  }
  return x < y ? x : y;
}

template <typename T>
T Max(T x, T y) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(x) || std::isnan(y)) {
      return std::numeric_limits<T>::quiet_NaN();
    }
    if (x == y) return std::signbit(x) ? y : x;  // +0.0 before -0.0
  }
  return x > y ? x : y;
}

// x converted to To: int8 (byte), uint16 (char), int16 (short), int32,
// int64, float or double.
template <typename To, typename From>
To Cast(From x) {
  if constexpr (std::is_floating_point_v<To> || std::is_integral_v<From>) {
    return static_cast<To>(x);
  } else if constexpr (sizeof(To) < sizeof(std::int32_t)) {
    return static_cast<To>(Cast<std::int32_t>(x));
  } else {
    // -2^31 and -2^63 are exact in float and double; every value strictly
    // between them and their negation truncates into range.
    constexpr From kMin = static_cast<From>(std::numeric_limits<To>::min());
    if (std::isnan(x)) return 0;
    if (x <= kMin) return std::numeric_limits<To>::min();
    if (x >= -kMin) return std::numeric_limits<To>::max();
    return static_cast<To>(x);
  }
}

// The class a primitive kind computes and is stored in: int32 for
// boolean, byte, char, short and int, as on the JVM operand stack.
template <TypeKind K>
using Stored = std::conditional_t<
    K == TypeKind::kLong, std::int64_t,
    std::conditional_t<K == TypeKind::kFloat, float,
                       std::conditional_t<K == TypeKind::kDouble, double,
                                          std::int32_t>>>;

// x converted to primitive kind K, in K's storage class.
template <TypeKind K, typename From>
Stored<K> To(From x) {
  if constexpr (K == TypeKind::kBoolean) {
    return Cast<std::int64_t>(x) != 0 ? 1 : 0;
  } else if constexpr (K == TypeKind::kByte) {
    return Cast<std::int8_t>(x);
  } else if constexpr (K == TypeKind::kChar) {
    return Cast<std::uint16_t>(x);
  } else if constexpr (K == TypeKind::kShort) {
    return Cast<std::int16_t>(x);
  } else {
    return Cast<Stored<K>>(x);
  }
}

// Calls f(std::integral_constant<TypeKind, kind>{}) for a primitive
// `kind`; throws MalformedInput for any other.
template <typename F>
decltype(auto) WithPrimitive(TypeKind kind, F&& f) {
  using TK = TypeKind;
  switch (kind) {
    case TK::kBoolean: return f(std::integral_constant<TK, TK::kBoolean>{});
    case TK::kByte: return f(std::integral_constant<TK, TK::kByte>{});
    case TK::kChar: return f(std::integral_constant<TK, TK::kChar>{});
    case TK::kShort: return f(std::integral_constant<TK, TK::kShort>{});
    case TK::kInt: return f(std::integral_constant<TK, TK::kInt>{});
    case TK::kLong: return f(std::integral_constant<TK, TK::kLong>{});
    case TK::kFloat: return f(std::integral_constant<TK, TK::kFloat>{});
    case TK::kDouble: return f(std::integral_constant<TK, TK::kDouble>{});
    default:
      throw MalformedInput("not a primitive type");
  }
}

// A boxed number converted to primitive kind `to`, boxed in to's class.
inline Value Convert(TypeKind to, const Value& v) {
  return WithPrimitive(to, [&v](auto k) {
    constexpr TypeKind K = decltype(k)::value;
    if (v.is_int()) return ToValue(To<K>(v.AsInt()));
    if (v.is_long()) return ToValue(To<K>(v.AsLong()));
    if (v.is_float()) return ToValue(To<K>(v.AsFloat()));
    return ToValue(To<K>(v.AsDouble()));
  });
}

}  // namespace s2fa::jvm::java
