#pragma once

// Exact rational arithmetic.
//
// The paper solves its linear program "over the rationals, using standard
// tools such as Maple or MuPAD".  Our production simplex uses doubles; this
// module provides overflow-checked 64-bit rationals and backs an exact
// tableau simplex (exact_simplex.hpp), the oracle the test-suite certifies
// the floating-point solver against.

#include <cstdint>
#include <iosfwd>

namespace bt {

/// Rational number num/den with den > 0, always kept in lowest terms.
/// Arithmetic throws bt::Error on signed-64-bit overflow (intermediates are
/// computed in 128 bits, so overflow means the *result* does not fit).
/// INT64_MIN is outside the representable range -- numerator and
/// denominator both stay within +-INT64_MAX -- so negation never overflows.
class Rational {
 public:
  Rational() = default;
  Rational(std::int64_t value) : num_(value) {  // NOLINT: implicit by design
    if (value == INT64_MIN) overflow();
  }
  Rational(std::int64_t num, std::int64_t den);

  /// The exact value of a finite double (every double is a dyadic rational
  /// m * 2^e).  Throws bt::Error when the value is not finite or its
  /// reduced numerator or denominator does not fit.
  static Rational from_double(double value);

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  Rational operator-() const;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  Rational operator/(const Rational& other) const;
  Rational& operator+=(const Rational& other) { return *this = *this + other; }
  Rational& operator-=(const Rational& other) { return *this = *this - other; }
  Rational& operator*=(const Rational& other) { return *this = *this * other; }
  Rational& operator/=(const Rational& other) { return *this = *this / other; }

  bool operator==(const Rational& other) const;
  bool operator!=(const Rational& other) const { return !(*this == other); }
  bool operator<(const Rational& other) const;
  bool operator<=(const Rational& other) const;
  bool operator>(const Rational& other) const { return other < *this; }
  bool operator>=(const Rational& other) const { return other <= *this; }

  bool is_zero() const { return num_ == 0; }
  int sign() const { return num_ > 0 ? 1 : (num_ < 0 ? -1 : 0); }

  double to_double() const;

 private:
  [[noreturn]] static void overflow();

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace bt
