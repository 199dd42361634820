#include "lp/rational.hpp"

#include <cmath>
#include <numeric>
#include <ostream>

#include "util/error.hpp"

namespace bt {

namespace {

using Wide = __int128;

std::int64_t narrow(Wide value) {
  BT_REQUIRE(value <= INT64_MAX && value >= -INT64_MAX, "Rational: 64-bit overflow");
  return static_cast<std::int64_t>(value);
}

Wide wide_gcd(Wide a, Wide b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Wide t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

void Rational::overflow() { throw Error("Rational: 64-bit overflow"); }

Rational::Rational(std::int64_t num, std::int64_t den) {
  BT_REQUIRE(den != 0, "Rational: zero denominator");
  if (num == INT64_MIN || den == INT64_MIN) overflow();
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const std::int64_t g = std::gcd(num, den);
  num_ = g == 0 ? 0 : num / g;
  den_ = g == 0 ? 1 : den / g;
}

Rational Rational::from_double(double value) {
  BT_REQUIRE(std::isfinite(value), "Rational::from_double: value is not finite");
  if (value == 0.0) return Rational(0);
  // value = mantissa * 2^exponent with a 53-bit integer mantissa; strip its
  // trailing zero bits so the denominator is the smallest power of two.
  int exponent = 0;
  auto mantissa = static_cast<std::int64_t>(std::ldexp(std::frexp(value, &exponent), 53));
  exponent -= 53;
  while (exponent < 0 && mantissa % 2 == 0) {
    mantissa /= 2;
    ++exponent;
  }
  if (exponent < 0) {
    BT_REQUIRE(exponent > -63, "Rational::from_double: denominator overflow");
    return Rational(mantissa, std::int64_t{1} << -exponent);
  }
  BT_REQUIRE(exponent < 63, "Rational: 64-bit overflow");
  return Rational(narrow(Wide(mantissa) * (Wide(1) << exponent)));
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

Rational Rational::operator+(const Rational& other) const {
  const Wide num = Wide(num_) * other.den_ + Wide(other.num_) * den_;
  const Wide den = Wide(den_) * other.den_;
  const Wide g = wide_gcd(num, den);
  if (g == 0) return Rational(0);
  Rational r;
  r.num_ = narrow(num / g);
  r.den_ = narrow(den / g);
  return r;
}

Rational Rational::operator-(const Rational& other) const { return *this + (-other); }

Rational Rational::operator*(const Rational& other) const {
  // Cross-reduce before multiplying to keep intermediates small.
  const Wide g1 = wide_gcd(num_, other.den_);
  const Wide g2 = wide_gcd(other.num_, den_);
  const Wide a = g1 == 0 ? 0 : Wide(num_) / g1;
  const Wide b = g2 == 0 ? 0 : Wide(other.num_) / g2;
  const Wide c = g2 == 0 ? Wide(den_) : Wide(den_) / g2;
  const Wide d = g1 == 0 ? Wide(other.den_) : Wide(other.den_) / g1;
  Rational r;
  r.num_ = narrow(a * b);
  r.den_ = narrow(c * d);
  if (r.num_ == 0) r.den_ = 1;
  return r;
}

Rational Rational::operator/(const Rational& other) const {
  BT_REQUIRE(!other.is_zero(), "Rational: division by zero");
  Rational inverse;
  if (other.num_ < 0) {
    inverse.num_ = -other.den_;
    inverse.den_ = -other.num_;
  } else {
    inverse.num_ = other.den_;
    inverse.den_ = other.num_;
  }
  return *this * inverse;
}

bool Rational::operator==(const Rational& other) const {
  return num_ == other.num_ && den_ == other.den_;
}

bool Rational::operator<(const Rational& other) const {
  return Wide(num_) * other.den_ < Wide(other.num_) * den_;
}

bool Rational::operator<=(const Rational& other) const {
  return Wide(num_) * other.den_ <= Wide(other.num_) * den_;
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  os << r.num();
  if (r.den() != 1) os << '/' << r.den();
  return os;
}

}  // namespace bt
