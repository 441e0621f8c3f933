#include "orbit/sgp4.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace satnet::orbit {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;
constexpr double kDeg2Rad = kPi / 180.0;

double fmod_twopi(double a) {
  a = std::fmod(a, kTwoPi);
  return a;
}

/// Julian date of 00:00 UT, January 1 of `year` (Gregorian).
double jday_jan1(int year) {
  return 367.0 * year - std::floor(7.0 * (year + std::floor(10.0 / 12.0)) * 0.25) +
         std::floor(275.0 / 9.0) + 1.0 + 1721013.5;
}

}  // namespace

double gstime(double jdut1) {
  const double tut1 = (jdut1 - 2451545.0) / 36525.0;
  double temp = -6.2e-6 * tut1 * tut1 * tut1 + 0.093104 * tut1 * tut1 +
                (876600.0 * 3600.0 + 8640184.812866) * tut1 + 67310.54841;
  temp = std::fmod(temp * kDeg2Rad / 240.0, kTwoPi);
  if (temp < 0.0) temp += kTwoPi;
  return temp;
}

double Tle::epoch_jd() const {
  const int year = epochyr < 57 ? 2000 + epochyr : 1900 + epochyr;
  // Day-of-year 1.0 is Jan 1, 00:00.
  return jday_jan1(year) - 1.0 + epochdays;
}

int tle_checksum(const std::string& line) {
  int sum = 0;
  const std::size_t n = std::min<std::size_t>(line.size(), 68);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = line[i];
    if (c >= '0' && c <= '9') sum += c - '0';
    if (c == '-') sum += 1;
  }
  return sum % 10;
}

namespace {

std::string trimmed(std::string s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Substring by 1-indexed inclusive TLE column numbers.
std::string cols(const std::string& line, int from, int to) {
  return line.substr(static_cast<std::size_t>(from - 1),
                     static_cast<std::size_t>(to - from + 1));
}

bool parse_double(const std::string& field, double& out) {
  const std::string t = trimmed(field);
  if (t.empty()) {
    out = 0.0;
    return true;
  }
  char* end = nullptr;
  out = std::strtod(t.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_int(const std::string& field, int& out) {
  const std::string t = trimmed(field);
  if (t.empty()) {
    out = 0;
    return true;
  }
  char* end = nullptr;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

/// TLE "implied exponent" field, e.g. " 13844-3" -> 0.13844e-3.
bool parse_exp_field(const std::string& field, double& out) {
  std::string t = field;
  while (!t.empty() && t.front() == ' ') t.erase(t.begin());
  if (t.empty()) {
    out = 0.0;
    return true;
  }
  double sign = 1.0;
  if (t.front() == '-') {
    sign = -1.0;
    t.erase(t.begin());
  } else if (t.front() == '+') {
    t.erase(t.begin());
  }
  // Split off the trailing signed single-digit exponent.
  if (t.size() < 2) return false;
  const std::size_t es = t.find_last_of("+-");
  if (es == std::string::npos || es == 0) return false;
  const std::string mant = t.substr(0, es);
  const std::string exps = t.substr(es);
  int expv = 0;
  if (!parse_int(exps, expv)) return false;
  for (const char c : mant) {
    if (c < '0' || c > '9') return false;
  }
  double m = 0.0;
  if (!parse_double(mant, m)) return false;
  out = sign * m * std::pow(10.0, expv - static_cast<int>(mant.size()));
  return true;
}

bool all_digits(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

/// True when emit_line2's %11.8f reproduces the field exactly: a plain
/// decimal below 100 with at most 8 fraction digits.
bool fits_mean_motion(const std::string& field, double value) {
  const std::size_t dot = field.find('.');
  const std::string whole = field.substr(0, dot);
  const std::string frac = dot == std::string::npos ? "" : field.substr(dot + 1);
  return value < 100.0 && all_digits(whole) && all_digits(frac) && frac.size() <= 8;
}

std::string pad_to(std::string s, std::size_t n) {
  if (s.size() < n) s.append(n - s.size(), ' ');
  return s;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool parse_into(Tle& t, const std::string& raw1, const std::string& raw2,
                std::string* error) {
  const std::string l1 = pad_to(raw1, 69);
  const std::string l2 = pad_to(raw2, 69);
  if (l1[0] != '1') return fail(error, "line 1 does not start with '1'");
  if (l2[0] != '2') return fail(error, "line 2 does not start with '2'");
  for (const auto* l : {&l1, &l2}) {
    const char ck = (*l)[68];
    if (ck < '0' || ck > '9') return fail(error, "missing checksum digit");
    if (ck - '0' != tle_checksum(*l)) return fail(error, "checksum mismatch");
  }
  int satnum1 = 0, satnum2 = 0;
  if (!parse_int(cols(l1, 3, 7), satnum1) || !parse_int(cols(l2, 3, 7), satnum2)) {
    return fail(error, "bad catalog number");
  }
  if (satnum1 != satnum2) return fail(error, "catalog numbers differ between lines");
  t.satnum = static_cast<unsigned>(satnum1);
  t.classification = l1[7] == ' ' ? 'U' : l1[7];
  t.intl_desig = trimmed(cols(l1, 10, 17));
  if (!parse_int(cols(l1, 19, 20), t.epochyr)) return fail(error, "bad epoch year");
  if (!parse_double(cols(l1, 21, 32), t.epochdays)) return fail(error, "bad epoch day");
  if (t.epochdays < 1.0 || t.epochdays >= 367.0) return fail(error, "epoch day out of range");
  if (!parse_double(cols(l1, 34, 43), t.ndot)) return fail(error, "bad ndot");
  if (!parse_exp_field(cols(l1, 45, 52), t.nddot)) return fail(error, "bad nddot");
  if (!parse_exp_field(cols(l1, 54, 61), t.bstar)) return fail(error, "bad bstar");
  if (!parse_int(cols(l1, 63, 63), t.ephtype)) return fail(error, "bad ephemeris type");
  if (!parse_int(cols(l1, 65, 68), t.elnum)) return fail(error, "bad element number");

  if (!parse_double(cols(l2, 9, 16), t.inclo_deg)) return fail(error, "bad inclination");
  if (!parse_double(cols(l2, 18, 25), t.nodeo_deg)) return fail(error, "bad RAAN");
  // Exactly the seven digits emit_line2 writes back (implied "0."); the
  // padded line always has all seven columns.
  const std::string ecc = cols(l2, 27, 33);
  if (!all_digits(ecc)) return fail(error, "bad eccentricity: expected 7 digits");
  t.ecco = std::strtod(ecc.c_str(), nullptr) * 1e-7;
  if (!parse_double(cols(l2, 35, 42), t.argpo_deg)) return fail(error, "bad arg of perigee");
  if (!parse_double(cols(l2, 44, 51), t.mo_deg)) return fail(error, "bad mean anomaly");
  if (!parse_double(cols(l2, 53, 63), t.no_revs_per_day)) return fail(error, "bad mean motion");
  if (t.no_revs_per_day <= 0.0) return fail(error, "non-positive mean motion");
  if (!fits_mean_motion(trimmed(cols(l2, 53, 63)), t.no_revs_per_day)) {
    return fail(error,
                "mean motion does not fit the 11-column field "
                "(below 100 rev/day, at most 8 decimals)");
  }
  if (!parse_int(cols(l2, 64, 68), t.revnum)) return fail(error, "bad rev number");
  return true;
}

/// Formats v as the 8-column implied-exponent TLE field, " NNNNN+E".
std::string fmt_exp_field(double v) {
  char buf[32];
  if (v == 0.0) return " 00000+0";
  const char sign = v < 0.0 ? '-' : ' ';
  double av = std::fabs(v);
  int exp10 = static_cast<int>(std::floor(std::log10(av))) + 1;
  long mant = std::lround(av * std::pow(10.0, 5 - exp10));
  if (mant >= 100000) {
    mant /= 10;
    ++exp10;
  }
  std::snprintf(buf, sizeof(buf), "%c%05ld%+d", sign, mant, exp10);
  return buf;
}

/// Formats ndot as the 10-column signed fraction field, " .00073094".
std::string fmt_ndot(double v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.8f", std::fabs(v));  // "0.00073094"
  std::string s(buf);
  if (!s.empty() && s.front() == '0') s.erase(s.begin());  // ".00073094"
  std::string out = (v < 0.0 ? "-" : " ") + s;
  while (out.size() < 10) out.insert(out.begin(), ' ');
  if (out.size() > 10) out = out.substr(out.size() - 10);
  return out;
}

std::string with_checksum(std::string line) {
  line = pad_to(std::move(line), 68);
  line += static_cast<char>('0' + tle_checksum(line));
  return line;
}

}  // namespace

std::optional<Tle> Tle::parse(const std::string& line1, const std::string& line2,
                              const std::string& name, std::string* error) {
  Tle t;
  t.name = trimmed(name);
  if (!parse_into(t, line1, line2, error)) return std::nullopt;
  return t;
}

std::string Tle::emit_line1() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "1 %05u%c %-8s %02d%012.8f %s %s %s %d %4d",
                satnum, classification, intl_desig.c_str(), epochyr, epochdays,
                fmt_ndot(ndot).c_str(), fmt_exp_field(nddot).c_str(),
                fmt_exp_field(bstar).c_str(), ephtype, elnum);
  return with_checksum(buf);
}

std::string Tle::emit_line2() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "2 %05u %8.4f %8.4f %07ld %8.4f %8.4f %11.8f%5d",
                satnum, inclo_deg, nodeo_deg, std::lround(ecco * 1e7), argpo_deg,
                mo_deg, no_revs_per_day, revnum);
  return with_checksum(buf);
}

std::optional<std::vector<Tle>> parse_tle_catalog(const std::string& text,
                                                  std::string* error) {
  std::vector<Tle> out;
  std::istringstream in(text);
  std::string line, pending_name;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    const std::string t = trimmed(line);
    if (t.empty() || t.front() == '#') continue;
    lines.push_back(line);
  }
  for (std::size_t i = 0; i < lines.size();) {
    const std::string t = trimmed(lines[i]);
    if (t.size() > 1 && t[0] == '1' && t[1] == ' ') {
      if (i + 1 >= lines.size()) {
        if (error != nullptr) *error = "dangling line 1 at end of catalog";
        return std::nullopt;
      }
      std::string why;
      auto tle = Tle::parse(lines[i], lines[i + 1], pending_name, &why);
      if (!tle.has_value()) {
        if (error != nullptr) {
          *error = "TLE " + std::to_string(out.size()) + ": " + why;
        }
        return std::nullopt;
      }
      out.push_back(std::move(*tle));
      pending_name.clear();
      i += 2;
    } else {
      pending_name = t;
      ++i;
    }
  }
  if (out.empty()) {
    if (error != nullptr) *error = "no TLEs found";
    return std::nullopt;
  }
  return out;
}

// ---------------------------------------------------------------------------
// SGP4 / SDP4 propagation (Vallado's sgp4unit structure, WGS-72).
// ---------------------------------------------------------------------------

namespace {

/// Everything dscom computes that dsinit and the periodic-coefficient
/// assignment consume (lunar/solar geometry at epoch).
struct DsCom {
  double sinim = 0, cosim = 0, sinomm = 0, cosomm = 0, snodm = 0, cnodm = 0;
  double day = 0, em = 0, emsq = 0, gam = 0, rtemsq = 0;
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  double ss1 = 0, ss2 = 0, ss3 = 0, ss4 = 0, ss5 = 0, ss6 = 0, ss7 = 0;
  double sz1 = 0, sz2 = 0, sz3 = 0;
  double sz11 = 0, sz12 = 0, sz13 = 0, sz21 = 0, sz22 = 0, sz23 = 0;
  double sz31 = 0, sz32 = 0, sz33 = 0;
  double z1 = 0, z2 = 0, z3 = 0;
  double z11 = 0, z12 = 0, z13 = 0, z21 = 0, z22 = 0, z23 = 0;
  double z31 = 0, z32 = 0, z33 = 0;
  double nm = 0, zmol = 0, zmos = 0;
  double e3 = 0, ee2 = 0, se2 = 0, se3 = 0, sgh2 = 0, sgh3 = 0, sgh4 = 0;
  double sh2 = 0, sh3 = 0, si2 = 0, si3 = 0, sl2 = 0, sl3 = 0, sl4 = 0;
  double xgh2 = 0, xgh3 = 0, xgh4 = 0, xh2 = 0, xh3 = 0, xi2 = 0, xi3 = 0;
  double xl2 = 0, xl3 = 0, xl4 = 0;
};

DsCom dscom(double epoch, double ep, double argpp, double tc, double inclp,
            double nodep, double np) {
  constexpr double zes = 0.01675, zel = 0.05490;
  constexpr double c1ss = 2.9864797e-6, c1l = 4.7968065e-7;
  constexpr double zsinis = 0.39785416, zcosis = 0.91744867;
  constexpr double zcosgs = 0.1945905, zsings = -0.98088458;

  DsCom d;
  d.nm = np;
  d.em = ep;
  d.snodm = std::sin(nodep);
  d.cnodm = std::cos(nodep);
  d.sinomm = std::sin(argpp);
  d.cosomm = std::cos(argpp);
  d.sinim = std::sin(inclp);
  d.cosim = std::cos(inclp);
  d.emsq = d.em * d.em;
  const double betasq = 1.0 - d.emsq;
  d.rtemsq = std::sqrt(betasq);

  d.day = epoch + 18261.5 + tc / 1440.0;
  const double xnodce = std::fmod(4.5236020 - 9.2422029e-4 * d.day, kTwoPi);
  const double stem = std::sin(xnodce);
  const double ctem = std::cos(xnodce);
  const double zcosil = 0.91375164 - 0.03568096 * ctem;
  const double zsinil = std::sqrt(1.0 - zcosil * zcosil);
  const double zsinhl = 0.089683511 * stem / zsinil;
  const double zcoshl = std::sqrt(1.0 - zsinhl * zsinhl);
  d.gam = 5.8351514 + 0.0019443680 * d.day;
  double zx = 0.39785416 * stem / zsinil;
  const double zy = zcoshl * ctem + 0.91744867 * zsinhl * stem;
  zx = std::atan2(zx, zy);
  zx = d.gam + zx - xnodce;
  const double zcosgl = std::cos(zx);
  const double zsingl = std::sin(zx);

  double zcosg = zcosgs, zsing = zsings, zcosi = zcosis, zsini = zsinis;
  double zcosh = d.cnodm, zsinh = d.snodm;
  double cc = c1ss;
  const double xnoi = 1.0 / d.nm;

  double s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
  double z1 = 0, z2 = 0, z3 = 0, z11 = 0, z12 = 0, z13 = 0;
  double z21 = 0, z22 = 0, z23 = 0, z31 = 0, z32 = 0, z33 = 0;
  for (int lsflg = 1; lsflg <= 2; ++lsflg) {
    const double a1 = zcosg * zcosh + zsing * zcosi * zsinh;
    const double a3 = -zsing * zcosh + zcosg * zcosi * zsinh;
    const double a7 = -zcosg * zsinh + zsing * zcosi * zcosh;
    const double a8 = zsing * zsini;
    const double a9 = zsing * zsinh + zcosg * zcosi * zcosh;
    const double a10 = zcosg * zsini;
    const double a2 = d.cosim * a7 + d.sinim * a8;
    const double a4 = d.cosim * a9 + d.sinim * a10;
    const double a5 = -d.sinim * a7 + d.cosim * a8;
    const double a6 = -d.sinim * a9 + d.cosim * a10;

    const double x1 = a1 * d.cosomm + a2 * d.sinomm;
    const double x2 = a3 * d.cosomm + a4 * d.sinomm;
    const double x3 = -a1 * d.sinomm + a2 * d.cosomm;
    const double x4 = -a3 * d.sinomm + a4 * d.cosomm;
    const double x5 = a5 * d.sinomm;
    const double x6 = a6 * d.sinomm;
    const double x7 = a5 * d.cosomm;
    const double x8 = a6 * d.cosomm;

    z31 = 12.0 * x1 * x1 - 3.0 * x3 * x3;
    z32 = 24.0 * x1 * x2 - 6.0 * x3 * x4;
    z33 = 12.0 * x2 * x2 - 3.0 * x4 * x4;
    z1 = 3.0 * (a1 * a1 + a2 * a2) + z31 * d.emsq;
    z2 = 6.0 * (a1 * a3 + a2 * a4) + z32 * d.emsq;
    z3 = 3.0 * (a3 * a3 + a4 * a4) + z33 * d.emsq;
    z11 = -6.0 * a1 * a5 + d.emsq * (-24.0 * x1 * x7 - 6.0 * x3 * x5);
    z12 = -6.0 * (a1 * a6 + a3 * a5) +
          d.emsq * (-24.0 * (x2 * x7 + x1 * x8) - 6.0 * (x3 * x6 + x4 * x5));
    z13 = -6.0 * a3 * a6 + d.emsq * (-24.0 * x2 * x8 - 6.0 * x4 * x6);
    z21 = 6.0 * a2 * a5 + d.emsq * (24.0 * x1 * x5 - 6.0 * x3 * x7);
    z22 = 6.0 * (a4 * a5 + a2 * a6) +
          d.emsq * (24.0 * (x2 * x5 + x1 * x6) - 6.0 * (x4 * x7 + x3 * x8));
    z23 = 6.0 * a4 * a6 + d.emsq * (24.0 * x2 * x6 - 6.0 * x4 * x8);
    z1 = z1 + z1 + betasq * z31;
    z2 = z2 + z2 + betasq * z32;
    z3 = z3 + z3 + betasq * z33;
    s3 = cc * xnoi;
    s2 = -0.5 * s3 / d.rtemsq;
    s4 = s3 * d.rtemsq;
    s1 = -15.0 * d.em * s4;
    s5 = x1 * x3 + x2 * x4;
    s6 = x2 * x3 + x1 * x4;
    s7 = x2 * x4 - x1 * x3;

    if (lsflg == 1) {
      d.ss1 = s1; d.ss2 = s2; d.ss3 = s3; d.ss4 = s4; d.ss5 = s5; d.ss6 = s6; d.ss7 = s7;
      d.sz1 = z1; d.sz2 = z2; d.sz3 = z3;
      d.sz11 = z11; d.sz12 = z12; d.sz13 = z13;
      d.sz21 = z21; d.sz22 = z22; d.sz23 = z23;
      d.sz31 = z31; d.sz32 = z32; d.sz33 = z33;
      zcosg = zcosgl; zsing = zsingl; zcosi = zcosil; zsini = zsinil;
      zcosh = zcoshl * d.cnodm + zsinhl * d.snodm;
      zsinh = d.snodm * zcoshl - d.cnodm * zsinhl;
      cc = c1l;
    }
  }
  d.s1 = s1; d.s2 = s2; d.s3 = s3; d.s4 = s4; d.s5 = s5; d.s6 = s6; d.s7 = s7;
  d.z1 = z1; d.z2 = z2; d.z3 = z3;
  d.z11 = z11; d.z12 = z12; d.z13 = z13;
  d.z21 = z21; d.z22 = z22; d.z23 = z23;
  d.z31 = z31; d.z32 = z32; d.z33 = z33;

  d.zmol = std::fmod(4.7199672 + 0.22997150 * d.day - d.gam, kTwoPi);
  if (d.zmol < 0.0) d.zmol += kTwoPi;
  d.zmos = std::fmod(6.2565837 + 0.017201977 * d.day, kTwoPi);
  if (d.zmos < 0.0) d.zmos += kTwoPi;

  // Solar periodic coefficients.
  d.se2 = 2.0 * d.ss1 * d.ss6;
  d.se3 = 2.0 * d.ss1 * d.ss7;
  d.si2 = 2.0 * d.ss2 * d.sz12;
  d.si3 = 2.0 * d.ss2 * (d.sz13 - d.sz11);
  d.sl2 = -2.0 * d.ss3 * d.sz2;
  d.sl3 = -2.0 * d.ss3 * (d.sz3 - d.sz1);
  d.sl4 = -2.0 * d.ss3 * (-21.0 - 9.0 * d.emsq) * zes;
  d.sgh2 = 2.0 * d.ss4 * d.sz32;
  d.sgh3 = 2.0 * d.ss4 * (d.sz33 - d.sz31);
  d.sgh4 = -18.0 * d.ss4 * zes;
  d.sh2 = -2.0 * d.ss2 * d.sz22;
  d.sh3 = -2.0 * d.ss2 * (d.sz23 - d.sz21);
  // Lunar periodic coefficients.
  d.ee2 = 2.0 * d.s1 * d.s6;
  d.e3 = 2.0 * d.s1 * d.s7;
  d.xi2 = 2.0 * d.s2 * d.z12;
  d.xi3 = 2.0 * d.s2 * (d.z13 - d.z11);
  d.xl2 = -2.0 * d.s3 * d.z2;
  d.xl3 = -2.0 * d.s3 * (d.z3 - d.z1);
  d.xl4 = -2.0 * d.s3 * (-21.0 - 9.0 * d.emsq) * zel;
  d.xgh2 = 2.0 * d.s4 * d.z32;
  d.xgh3 = 2.0 * d.s4 * (d.z33 - d.z31);
  d.xgh4 = -18.0 * d.s4 * zel;
  d.xh2 = -2.0 * d.s2 * d.z22;
  d.xh3 = -2.0 * d.s2 * (d.z23 - d.z21);
  return d;
}

}  // namespace

void Sgp4::dpper(double t, bool init, double& ep, double& inclp, double& nodep,
                 double& argpp, double& mp) const {
  constexpr double zns = 1.19459e-5, zes = 0.01675;
  constexpr double znl = 1.5835218e-4, zel = 0.05490;

  // Solar periodics.
  double zm = init ? zmos_ : zmos_ + zns * t;
  double zf = zm + 2.0 * zes * std::sin(zm);
  double sinzf = std::sin(zf);
  double f2 = 0.5 * sinzf * sinzf - 0.25;
  double f3 = -0.5 * sinzf * std::cos(zf);
  const double ses = se2_ * f2 + se3_ * f3;
  const double sis = si2_ * f2 + si3_ * f3;
  const double sls = sl2_ * f2 + sl3_ * f3 + sl4_ * sinzf;
  const double sghs = sgh2_ * f2 + sgh3_ * f3 + sgh4_ * sinzf;
  const double shs = sh2_ * f2 + sh3_ * f3;
  // Lunar periodics.
  zm = init ? zmol_ : zmol_ + znl * t;
  zf = zm + 2.0 * zel * std::sin(zm);
  sinzf = std::sin(zf);
  f2 = 0.5 * sinzf * sinzf - 0.25;
  f3 = -0.5 * sinzf * std::cos(zf);
  const double sel = ee2_ * f2 + e3_ * f3;
  const double sil = xi2_ * f2 + xi3_ * f3;
  const double sll = xl2_ * f2 + xl3_ * f3 + xl4_ * sinzf;
  const double sghl = xgh2_ * f2 + xgh3_ * f3 + xgh4_ * sinzf;
  const double shll = xh2_ * f2 + xh3_ * f3;

  double pe = ses + sel;
  double pinc = sis + sil;
  double pl = sls + sll;
  double pgh = sghs + sghl;
  double ph = shs + shll;

  if (init) return;
  pe -= peo_;
  pinc -= pinco_;
  pl -= plo_;
  pgh -= pgho_;
  ph -= pho_;
  inclp += pinc;
  ep += pe;
  const double sinip = std::sin(inclp);
  const double cosip = std::cos(inclp);
  if (inclp >= 0.2) {
    ph /= sinip;
    pgh -= cosip * ph;
    argpp += pgh;
    nodep += ph;
    mp += pl;
  } else {
    // Lyddane modification for low inclination.
    const double sinop = std::sin(nodep);
    const double cosop = std::cos(nodep);
    double alfdp = sinip * sinop;
    double betdp = sinip * cosop;
    const double dalf = ph * cosop + pinc * cosip * sinop;
    const double dbet = -ph * sinop + pinc * cosip * cosop;
    alfdp += dalf;
    betdp += dbet;
    nodep = fmod_twopi(nodep);
    if (nodep < 0.0) nodep += kTwoPi;
    double xls = mp + argpp + cosip * nodep;
    const double dls = pl + pgh - pinc * nodep * sinip;
    xls += dls;
    const double xnoh = nodep;
    nodep = std::atan2(alfdp, betdp);
    if (nodep < 0.0) nodep += kTwoPi;
    if (std::fabs(xnoh - nodep) > kPi) {
      if (nodep < xnoh) {
        nodep += kTwoPi;
      } else {
        nodep -= kTwoPi;
      }
    }
    mp += pl;
    argpp = xls - mp - cosip * nodep;
  }
}

Sgp4::Sgp4(const Tle& tle)
    : Sgp4(tle.epoch_jd(), tle.no_revs_per_day * kTwoPi / 1440.0, tle.ecco,
           tle.inclo_deg * kDeg2Rad, tle.nodeo_deg * kDeg2Rad, tle.argpo_deg * kDeg2Rad,
           tle.mo_deg * kDeg2Rad, tle.bstar) {}

Sgp4::Sgp4(double epoch_jd, double no_kozai, double ecco, double inclo, double nodeo,
           double argpo, double mo, double bstar)
    : epoch_jd_(epoch_jd),
      no_kozai_(no_kozai),
      ecco_(ecco),
      inclo_(inclo),
      nodeo_(nodeo),
      argpo_(argpo),
      mo_(mo),
      bstar_(bstar) {
  init_near_earth(epoch_jd - 2433281.5);
}

void Sgp4::init_near_earth(double epoch1950) {
  using C = Sgp4Constants;
  constexpr double x2o3 = 2.0 / 3.0;

  // --- initl: un-Kozai the mean motion. ---
  const double eccsq = ecco_ * ecco_;
  const double omeosq = 1.0 - eccsq;
  const double rteosq = std::sqrt(omeosq);
  const double cosio = std::cos(inclo_);
  const double cosio2 = cosio * cosio;
  const double ak = std::pow(C::xke / no_kozai_, x2o3);
  const double d1 = 0.75 * C::j2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
  double del = d1 / (ak * ak);
  const double adel =
      ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
  del = d1 / (adel * adel);
  no_unkozai_ = no_kozai_ / (1.0 + del);
  const double ao = std::pow(C::xke / no_unkozai_, x2o3);
  const double sinio = std::sin(inclo_);
  const double po = ao * omeosq;
  const double con42 = 1.0 - 5.0 * cosio2;
  con41_ = -con42 - cosio2 - cosio2;
  const double posq = po * po;
  const double rp = ao * (1.0 - ecco_);
  a_ = ao;
  gsto_ = gstime(epoch1950 + 2433281.5);
  method_ = 'n';

  // --- sgp4init body. ---
  const double ss = 78.0 / C::radiusearthkm + 1.0;
  const double qzms2ttemp = (120.0 - 78.0) / C::radiusearthkm;
  const double qzms2t = qzms2ttemp * qzms2ttemp * qzms2ttemp * qzms2ttemp;

  isimp_ = 0;
  if (rp < 220.0 / C::radiusearthkm + 1.0) isimp_ = 1;
  double sfour = ss;
  double qzms24 = qzms2t;
  const double perige = (rp - 1.0) * C::radiusearthkm;
  if (perige < 156.0) {
    sfour = perige - 78.0;
    if (perige < 98.0) sfour = 20.0;
    const double qzms24temp = (120.0 - sfour) / C::radiusearthkm;
    qzms24 = qzms24temp * qzms24temp * qzms24temp * qzms24temp;
    sfour = sfour / C::radiusearthkm + 1.0;
  }
  const double pinvsq = 1.0 / posq;

  const double tsi = 1.0 / (ao - sfour);
  eta_ = ao * ecco_ * tsi;
  const double etasq = eta_ * eta_;
  const double eeta = ecco_ * eta_;
  const double psisq = std::fabs(1.0 - etasq);
  const double coef = qzms24 * std::pow(tsi, 4.0);
  const double coef1 = coef / std::pow(psisq, 3.5);
  const double cc2 =
      coef1 * no_unkozai_ *
      (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq)) +
       0.375 * C::j2 * tsi / psisq * con41_ * (8.0 + 3.0 * etasq * (8.0 + etasq)));
  cc1_ = bstar_ * cc2;
  double cc3 = 0.0;
  if (ecco_ > 1.0e-4) {
    cc3 = -2.0 * coef * tsi * C::j3oj2 * no_unkozai_ * sinio / ecco_;
  }
  x1mth2_ = 1.0 - cosio2;
  cc4_ = 2.0 * no_unkozai_ * coef1 * ao * omeosq *
         (eta_ * (2.0 + 0.5 * etasq) + ecco_ * (0.5 + 2.0 * etasq) -
          C::j2 * tsi / (ao * psisq) *
              (-3.0 * con41_ * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta)) +
               0.75 * x1mth2_ * (2.0 * etasq - eeta * (1.0 + etasq)) *
                   std::cos(2.0 * argpo_)));
  cc5_ = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);
  const double cosio4 = cosio2 * cosio2;
  const double temp1 = 1.5 * C::j2 * pinvsq * no_unkozai_;
  const double temp2 = 0.5 * temp1 * C::j2 * pinvsq;
  const double temp3 = -0.46875 * C::j4 * pinvsq * pinvsq * no_unkozai_;
  mdot_ = no_unkozai_ + 0.5 * temp1 * rteosq * con41_ +
          0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
  argpdot_ = -0.5 * temp1 * con42 +
             0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4) +
             temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
  const double xhdot1 = -temp1 * cosio;
  nodedot_ = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2) +
                       2.0 * temp3 * (3.0 - 7.0 * cosio2)) *
                          cosio;
  omgcof_ = bstar_ * cc3 * std::cos(argpo_);
  xmcof_ = 0.0;
  if (ecco_ > 1.0e-4) xmcof_ = -x2o3 * coef * bstar_ / eeta;
  nodecf_ = 3.5 * omeosq * xhdot1 * cc1_;
  t2cof_ = 1.5 * cc1_;
  if (std::fabs(cosio + 1.0) > 1.5e-12) {
    xlcof_ = -0.25 * C::j3oj2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio);
  } else {
    xlcof_ = -0.25 * C::j3oj2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12;
  }
  aycof_ = -0.5 * C::j3oj2 * sinio;
  const double delmotemp = 1.0 + eta_ * std::cos(mo_);
  delmo_ = delmotemp * delmotemp * delmotemp;
  sinmao_ = std::sin(mo_);
  x7thm1_ = 7.0 * cosio2 - 1.0;

  if (kTwoPi / no_unkozai_ >= 225.0) {
    method_ = 'd';
    isimp_ = 1;
    init_deep_space(epoch1950);
  }

  if (isimp_ != 1) {
    const double cc1sq = cc1_ * cc1_;
    d2_ = 4.0 * ao * tsi * cc1sq;
    const double temp = d2_ * tsi * cc1_ / 3.0;
    d3_ = (17.0 * ao + sfour) * temp;
    d4_ = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1_;
    t3cof_ = d2_ + 2.0 * cc1sq;
    t4cof_ = 0.25 * (3.0 * d3_ + cc1_ * (12.0 * d2_ + 10.0 * cc1sq));
    t5cof_ = 0.2 * (3.0 * d4_ + 12.0 * cc1_ * d3_ + 6.0 * d2_ * d2_ +
                    15.0 * cc1sq * (2.0 * d2_ + cc1sq));
  }
}

void Sgp4::init_deep_space(double epoch1950) {
  using C = Sgp4Constants;
  constexpr double x2o3 = 2.0 / 3.0;
  constexpr double q22 = 1.7891679e-6, q31 = 2.1460748e-6, q33 = 2.2123015e-7;
  constexpr double root22 = 1.7891679e-6, root44 = 7.3636953e-9, root54 = 2.1765803e-9;
  constexpr double rptim = 4.37526908801129966e-3;  // earth rotation, rad/min
  constexpr double root32 = 3.7393792e-7, root52 = 1.1428639e-7;
  constexpr double znl = 1.5835218e-4, zns = 1.19459e-5;

  const double tc = 0.0;
  const double inclm = inclo_;
  const DsCom d = dscom(epoch1950, ecco_, argpo_, tc, inclo_, nodeo_, no_unkozai_);

  e3_ = d.e3; ee2_ = d.ee2;
  se2_ = d.se2; se3_ = d.se3;
  sgh2_ = d.sgh2; sgh3_ = d.sgh3; sgh4_ = d.sgh4;
  sh2_ = d.sh2; sh3_ = d.sh3;
  si2_ = d.si2; si3_ = d.si3;
  sl2_ = d.sl2; sl3_ = d.sl3; sl4_ = d.sl4;
  xgh2_ = d.xgh2; xgh3_ = d.xgh3; xgh4_ = d.xgh4;
  xh2_ = d.xh2; xh3_ = d.xh3;
  xi2_ = d.xi2; xi3_ = d.xi3;
  xl2_ = d.xl2; xl3_ = d.xl3; xl4_ = d.xl4;
  zmol_ = d.zmol; zmos_ = d.zmos;
  peo_ = 0.0; pinco_ = 0.0; plo_ = 0.0; pgho_ = 0.0; pho_ = 0.0;

  // --- dsinit: secular rates + resonance coefficients. ---
  const double sinim = d.sinim, cosim = d.cosim;
  const double emsq = d.emsq;
  double em = d.em;
  double nm = d.nm;
  const double eccsq = ecco_ * ecco_;

  irez_ = 0;
  if (nm < 0.0052359877 && nm > 0.0034906585) irez_ = 1;
  if (nm >= 8.26e-3 && nm <= 9.24e-3 && em >= 0.5) irez_ = 2;

  // Solar secular rates.
  const double ses = d.ss1 * zns * d.ss5;
  const double sis = d.ss2 * zns * (d.sz11 + d.sz13);
  const double sls = -zns * d.ss3 * (d.sz1 + d.sz3 - 14.0 - 6.0 * emsq);
  const double sghs = d.ss4 * zns * (d.sz31 + d.sz33 - 6.0);
  double shs = -zns * d.ss2 * (d.sz21 + d.sz23);
  if (inclm < 5.2359877e-2 || inclm > kPi - 5.2359877e-2) shs = 0.0;
  if (sinim != 0.0) shs = shs / sinim;
  const double sgs = sghs - cosim * shs;

  // Lunar secular rates.
  dedt_ = ses + d.s1 * znl * d.s5;
  didt_ = sis + d.s2 * znl * (d.z11 + d.z13);
  dmdt_ = sls - znl * d.s3 * (d.z1 + d.z3 - 14.0 - 6.0 * emsq);
  const double sghl = d.s4 * znl * (d.z31 + d.z33 - 6.0);
  double shll = -znl * d.s2 * (d.z21 + d.z23);
  if (inclm < 5.2359877e-2 || inclm > kPi - 5.2359877e-2) shll = 0.0;
  domdt_ = sgs + sghl;
  dnodt_ = shs;
  if (sinim != 0.0) {
    domdt_ -= cosim / sinim * shll;
    dnodt_ += shll / sinim;
  }

  const double theta = std::fmod(gsto_ + tc * rptim, kTwoPi);

  if (irez_ != 0) {
    const double aonv = std::pow(nm / C::xke, x2o3);
    if (irez_ == 2) {
      // Geopotential resonance for 12-hour orbits.
      const double cosisq = cosim * cosim;
      const double emo = em;
      em = ecco_;
      const double emsqo = emsq;
      const double emsq2 = eccsq;
      const double eoc = em * emsq2;
      double g201 = -0.306 - (em - 0.64) * 0.440;
      double g211, g310, g322, g410, g422, g520, g521, g532, g533;
      if (em <= 0.65) {
        g211 = 3.616 - 13.2470 * em + 16.2900 * emsq2;
        g310 = -19.302 + 117.3900 * em - 228.4190 * emsq2 + 156.5910 * eoc;
        g322 = -18.9068 + 109.7927 * em - 214.6334 * emsq2 + 146.5816 * eoc;
        g410 = -41.122 + 242.6940 * em - 471.0940 * emsq2 + 313.9530 * eoc;
        g422 = -146.407 + 841.8800 * em - 1629.014 * emsq2 + 1083.4350 * eoc;
        g520 = -532.114 + 3017.977 * em - 5740.032 * emsq2 + 3708.2760 * eoc;
      } else {
        g211 = -72.099 + 331.819 * em - 508.738 * emsq2 + 266.724 * eoc;
        g310 = -346.844 + 1582.851 * em - 2415.925 * emsq2 + 1246.113 * eoc;
        g322 = -342.585 + 1554.908 * em - 2366.899 * emsq2 + 1215.972 * eoc;
        g410 = -1052.797 + 4758.686 * em - 7193.992 * emsq2 + 3651.957 * eoc;
        g422 = -3581.690 + 16178.110 * em - 24462.770 * emsq2 + 12422.520 * eoc;
        if (em > 0.715) {
          g520 = -5149.66 + 29936.92 * em - 54087.36 * emsq2 + 31324.56 * eoc;
        } else {
          g520 = 1464.74 - 4664.75 * em + 3763.64 * emsq2;
        }
      }
      if (em < 0.7) {
        g533 = -919.22770 + 4988.6100 * em - 9064.7700 * emsq2 + 5542.21 * eoc;
        g521 = -822.71072 + 4568.6173 * em - 8491.4146 * emsq2 + 5337.524 * eoc;
        g532 = -853.66600 + 4690.2500 * em - 8624.7700 * emsq2 + 5341.4 * eoc;
      } else {
        g533 = -37995.780 + 161616.52 * em - 229838.20 * emsq2 + 109377.94 * eoc;
        g521 = -51752.104 + 218913.95 * em - 309468.16 * emsq2 + 146349.42 * eoc;
        g532 = -40023.880 + 170470.89 * em - 242699.48 * emsq2 + 115605.82 * eoc;
      }
      const double sini2 = sinim * sinim;
      const double f220 = 0.75 * (1.0 + 2.0 * cosim + cosisq);
      const double f221 = 1.5 * sini2;
      const double f321 = 1.875 * sinim * (1.0 - 2.0 * cosim - 3.0 * cosisq);
      const double f322 = -1.875 * sinim * (1.0 + 2.0 * cosim - 3.0 * cosisq);
      const double f441 = 35.0 * sini2 * f220;
      const double f442 = 39.3750 * sini2 * sini2;
      const double f522 =
          9.84375 * sinim *
          (sini2 * (1.0 - 2.0 * cosim - 5.0 * cosisq) +
           0.33333333 * (-2.0 + 4.0 * cosim + 6.0 * cosisq));
      const double f523 =
          sinim * (4.92187512 * sini2 * (-2.0 - 4.0 * cosim + 10.0 * cosisq) +
                   6.56250012 * (1.0 + 2.0 * cosim - 3.0 * cosisq));
      const double f542 =
          29.53125 * sinim *
          (2.0 - 8.0 * cosim + cosisq * (-12.0 + 8.0 * cosim + 10.0 * cosisq));
      const double f543 =
          29.53125 * sinim *
          (-2.0 - 8.0 * cosim + cosisq * (12.0 + 8.0 * cosim - 10.0 * cosisq));
      const double xno2 = nm * nm;
      const double ainv2 = aonv * aonv;
      double temp1 = 3.0 * xno2 * ainv2;
      double temp = temp1 * root22;
      d2201_ = temp * f220 * g201;
      d2211_ = temp * f221 * g211;
      temp1 *= aonv;
      temp = temp1 * root32;
      d3210_ = temp * f321 * g310;
      d3222_ = temp * f322 * g322;
      temp1 *= aonv;
      temp = 2.0 * temp1 * root44;
      d4410_ = temp * f441 * g410;
      d4422_ = temp * f442 * g422;
      temp1 *= aonv;
      temp = temp1 * root52;
      d5220_ = temp * f522 * g520;
      d5232_ = temp * f523 * g532;
      temp = 2.0 * temp1 * root54;
      d5421_ = temp * f542 * g521;
      d5433_ = temp * f543 * g533;
      xlamo_ = std::fmod(mo_ + nodeo_ + nodeo_ - theta - theta, kTwoPi);
      xfact_ = mdot_ + dmdt_ + 2.0 * (nodedot_ + dnodt_ - rptim) - no_unkozai_;
      em = emo;
      (void)emsqo;
    }
    if (irez_ == 1) {
      // Synchronous (24-hour) resonance.
      const double g200 = 1.0 + emsq * (-2.5 + 0.8125 * emsq);
      const double g310 = 1.0 + 2.0 * emsq;
      const double g300 = 1.0 + emsq * (-6.0 + 6.60937 * emsq);
      const double f220 = 0.75 * (1.0 + cosim) * (1.0 + cosim);
      const double f311 =
          0.9375 * sinim * sinim * (1.0 + 3.0 * cosim) - 0.75 * (1.0 + cosim);
      double f330 = 1.0 + cosim;
      f330 = 1.875 * f330 * f330 * f330;
      del1_ = 3.0 * nm * nm * aonv * aonv;
      del2_ = 2.0 * del1_ * f220 * g200 * q22;
      del3_ = 3.0 * del1_ * f330 * g300 * q33 * aonv;
      del1_ = del1_ * f311 * g310 * q31 * aonv;
      xlamo_ = std::fmod(mo_ + nodeo_ + argpo_ - theta, kTwoPi);
      xfact_ = mdot_ + (argpdot_ + nodedot_) - rptim + dmdt_ + domdt_ + dnodt_ -
               no_unkozai_;
    }
  }

  // Initialize the (harmless at t=0) periodic contributions.
  double ep = ecco_, inclp = inclo_, nodep = nodeo_, argpp = argpo_, mp = mo_;
  dpper(0.0, /*init=*/true, ep, inclp, nodep, argpp, mp);
}

std::optional<TemeState> Sgp4::propagate(double tsince_min) const {
  using C = Sgp4Constants;
  constexpr double x2o3 = 2.0 / 3.0;
  constexpr double vkmpersec = C::radiusearthkm * C::xke / 60.0;
  const double t = tsince_min;

  // Secular gravity + atmospheric drag.
  const double xmdf = mo_ + mdot_ * t;
  const double argpdf = argpo_ + argpdot_ * t;
  const double nodedf = nodeo_ + nodedot_ * t;
  double argpm = argpdf;
  double mm = xmdf;
  const double t2 = t * t;
  double nodem = nodedf + nodecf_ * t2;
  double tempa = 1.0 - cc1_ * t;
  double tempe = bstar_ * cc4_ * t;
  double templ = t2cof_ * t2;

  if (isimp_ != 1) {
    const double delomg = omgcof_ * t;
    const double delmtemp = 1.0 + eta_ * std::cos(xmdf);
    const double delm = xmcof_ * (delmtemp * delmtemp * delmtemp - delmo_);
    const double temp = delomg + delm;
    mm = xmdf + temp;
    argpm = argpdf - temp;
    const double t3 = t2 * t;
    const double t4 = t3 * t;
    tempa = tempa - d2_ * t2 - d3_ * t3 - d4_ * t4;
    tempe = tempe + bstar_ * cc5_ * (std::sin(mm) - sinmao_);
    templ = templ + t3cof_ * t3 + t4 * (t4cof_ + t * t5cof_);
  }

  double nm = no_unkozai_;
  double em = ecco_;
  double inclm = inclo_;

  if (method_ == 'd') {
    // --- dspace: deep-space secular + resonance integration. ---
    constexpr double fasx2 = 0.13130908, fasx4 = 2.8843198, fasx6 = 0.37448087;
    constexpr double g22 = 5.7686396, g32 = 0.95240898, g44 = 1.8014998;
    constexpr double g52 = 1.0508330, g54 = 4.4108898;
    constexpr double rptim = 4.37526908801129966e-3;
    constexpr double stepp = 720.0, stepn = -720.0, step2 = 259200.0;

    const double tc = t;
    const double theta = std::fmod(gsto_ + tc * rptim, kTwoPi);
    em += dedt_ * t;
    inclm += didt_ * t;
    argpm += domdt_ * t;
    nodem += dnodt_ * t;
    mm += dmdt_ * t;
    double dndt = 0.0;

    if (irez_ != 0) {
      // Integrate the resonance terms from the element epoch every call:
      // the reference restarts whenever its cached state is unusable, and
      // an epoch start makes propagation a pure function of (elements, t)
      // — no mutable integrator state, so const + thread-safe. Fixed
      // 720-min Euler steps per the SDP4 spec (|t|/720 of them).
      double atime = 0.0;
      double xni = no_unkozai_;
      double xli = xlamo_;
      const double delt = t > 0.0 ? stepp : stepn;
      double xndt = 0.0, xldot = 0.0, xnddt = 0.0, ft = 0.0;
      bool integrating = true;
      while (integrating) {
        if (irez_ != 2) {
          xndt = del1_ * std::sin(xli - fasx2) + del2_ * std::sin(2.0 * (xli - fasx4)) +
                 del3_ * std::sin(3.0 * (xli - fasx6));
          xldot = xni + xfact_;
          xnddt = del1_ * std::cos(xli - fasx2) +
                  2.0 * del2_ * std::cos(2.0 * (xli - fasx4)) +
                  3.0 * del3_ * std::cos(3.0 * (xli - fasx6));
          xnddt *= xldot;
        } else {
          const double xomi = argpo_ + argpdot_ * atime;
          const double x2omi = xomi + xomi;
          const double x2li = xli + xli;
          xndt = d2201_ * std::sin(x2omi + xli - g22) + d2211_ * std::sin(xli - g22) +
                 d3210_ * std::sin(xomi + xli - g32) +
                 d3222_ * std::sin(-xomi + xli - g32) +
                 d4410_ * std::sin(x2omi + x2li - g44) + d4422_ * std::sin(x2li - g44) +
                 d5220_ * std::sin(xomi + xli - g52) +
                 d5232_ * std::sin(-xomi + xli - g52) +
                 d5421_ * std::sin(xomi + x2li - g54) +
                 d5433_ * std::sin(-xomi + x2li - g54);
          xldot = xni + xfact_;
          xnddt = d2201_ * std::cos(x2omi + xli - g22) + d2211_ * std::cos(xli - g22) +
                  d3210_ * std::cos(xomi + xli - g32) +
                  d3222_ * std::cos(-xomi + xli - g32) +
                  d5220_ * std::cos(xomi + xli - g52) +
                  d5232_ * std::cos(-xomi + xli - g52) +
                  2.0 * (d4410_ * std::cos(x2omi + x2li - g44) +
                         d4422_ * std::cos(x2li - g44) +
                         d5421_ * std::cos(xomi + x2li - g54) +
                         d5433_ * std::cos(-xomi + x2li - g54));
          xnddt *= xldot;
        }
        if (std::fabs(t - atime) >= stepp) {
          xli += xldot * delt + xndt * step2;
          xni += xndt * delt + xnddt * step2;
          atime += delt;
        } else {
          ft = t - atime;
          integrating = false;
        }
      }
      nm = xni + xndt * ft + xnddt * ft * ft * 0.5;
      const double xl = xli + xldot * ft + xndt * ft * ft * 0.5;
      if (irez_ != 1) {
        mm = xl - 2.0 * nodem + 2.0 * theta;
        dndt = nm - no_unkozai_;
      } else {
        mm = xl - nodem - argpm + theta;
        dndt = nm - no_unkozai_;
      }
      nm = no_unkozai_ + dndt;
    }
  }

  if (nm <= 0.0) return std::nullopt;
  const double am = std::pow(C::xke / nm, x2o3) * tempa * tempa;
  nm = C::xke / std::pow(am, 1.5);
  em -= tempe;
  if (em >= 1.0 || em < -0.001) return std::nullopt;
  if (em < 1.0e-6) em = 1.0e-6;
  mm += no_unkozai_ * templ;
  double xlm = mm + argpm + nodem;

  nodem = std::fmod(nodem, kTwoPi);
  argpm = std::fmod(argpm, kTwoPi);
  xlm = std::fmod(xlm, kTwoPi);
  mm = std::fmod(xlm - argpm - nodem, kTwoPi);
  if (mm < 0.0) mm += kTwoPi;

  double ep = em;
  double xincp = inclm;
  double argpp = argpm;
  double nodep = nodem;
  double mp = mm;
  double sinip = std::sin(xincp);
  double cosip = std::cos(xincp);

  double aycof = aycof_;
  double xlcof = xlcof_;
  double con41 = con41_;
  double x1mth2 = x1mth2_;
  double x7thm1 = x7thm1_;
  if (method_ == 'd') {
    dpper(t, /*init=*/false, ep, xincp, nodep, argpp, mp);
    if (xincp < 0.0) {
      xincp = -xincp;
      nodep += kPi;
      argpp -= kPi;
    }
    if (ep < 0.0 || ep > 1.0) return std::nullopt;
    // Re-derive the inclination-dependent long-period coefficients.
    sinip = std::sin(xincp);
    cosip = std::cos(xincp);
    aycof = -0.5 * C::j3oj2 * sinip;
    if (std::fabs(cosip + 1.0) > 1.5e-12) {
      xlcof = -0.25 * C::j3oj2 * sinip * (3.0 + 5.0 * cosip) / (1.0 + cosip);
    } else {
      xlcof = -0.25 * C::j3oj2 * sinip * (3.0 + 5.0 * cosip) / 1.5e-12;
    }
    const double cosisq = cosip * cosip;
    con41 = 3.0 * cosisq - 1.0;
    x1mth2 = 1.0 - cosisq;
    x7thm1 = 7.0 * cosisq - 1.0;
  }

  // Long-period periodics.
  const double axnl = ep * std::cos(argpp);
  double temp = 1.0 / (am * (1.0 - ep * ep));
  const double aynl = ep * std::sin(argpp) + temp * aycof;
  const double xl = mp + argpp + nodep + temp * xlcof * axnl;

  // Kepler's equation.
  const double u = std::fmod(xl - nodep, kTwoPi);
  double eo1 = u;
  double tem5 = 9999.9;
  double sineo1 = 0.0, coseo1 = 0.0;
  int ktr = 1;
  while (std::fabs(tem5) >= 1.0e-12 && ktr <= 10) {
    sineo1 = std::sin(eo1);
    coseo1 = std::cos(eo1);
    tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
    tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
    if (std::fabs(tem5) >= 0.95) tem5 = tem5 > 0.0 ? 0.95 : -0.95;
    eo1 += tem5;
    ++ktr;
  }

  // Short-period preliminary quantities.
  const double ecose = axnl * coseo1 + aynl * sineo1;
  const double esine = axnl * sineo1 - aynl * coseo1;
  const double el2 = axnl * axnl + aynl * aynl;
  const double pl = am * (1.0 - el2);
  if (pl < 0.0) return std::nullopt;

  const double rl = am * (1.0 - ecose);
  const double rdotl = std::sqrt(am) * esine / rl;
  const double rvdotl = std::sqrt(pl) / rl;
  const double betal = std::sqrt(1.0 - el2);
  temp = esine / (1.0 + betal);
  const double sinu = am / rl * (sineo1 - aynl - axnl * temp);
  const double cosu = am / rl * (coseo1 - axnl + aynl * temp);
  double su = std::atan2(sinu, cosu);
  const double sin2u = (cosu + cosu) * sinu;
  const double cos2u = 1.0 - 2.0 * sinu * sinu;
  temp = 1.0 / pl;
  const double temp1 = 0.5 * C::j2 * temp;
  const double temp2 = temp1 * temp;

  // Short-period periodics.
  const double mrt =
      rl * (1.0 - 1.5 * temp2 * betal * con41) + 0.5 * temp1 * x1mth2 * cos2u;
  if (mrt < 1.0) return std::nullopt;  // orbital decay
  su -= 0.25 * temp2 * x7thm1 * sin2u;
  const double xnode = nodep + 1.5 * temp2 * cosip * sin2u;
  const double xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;
  const double mvt = rdotl - nm * temp1 * x1mth2 * sin2u / C::xke;
  const double rvdot = rvdotl + nm * temp1 * (x1mth2 * cos2u + 1.5 * con41) / C::xke;

  // Orientation vectors.
  const double sinsu = std::sin(su);
  const double cossu = std::cos(su);
  const double snod = std::sin(xnode);
  const double cnod = std::cos(xnode);
  const double sini = std::sin(xinc);
  const double cosi = std::cos(xinc);
  const double xmx = -snod * cosi;
  const double xmy = cnod * cosi;
  const double ux = xmx * sinsu + cnod * cossu;
  const double uy = xmy * sinsu + snod * cossu;
  const double uz = sini * sinsu;
  const double vx = xmx * cossu - cnod * sinsu;
  const double vy = xmy * cossu - snod * sinsu;
  const double vz = sini * cossu;

  TemeState out;
  out.r = {mrt * ux * C::radiusearthkm, mrt * uy * C::radiusearthkm,
           mrt * uz * C::radiusearthkm};
  out.v = {(mvt * ux + rvdot * vx) * vkmpersec, (mvt * uy + rvdot * vy) * vkmpersec,
           (mvt * uz + rvdot * vz) * vkmpersec};
  return out;
}

double Sgp4::gate_apogee_alt_km(double spherical_earth_radius_km) const {
  // Kepler apogee radius from the un-Kozai'd semi-major axis, plus a
  // margin for the short/long-period and resonance excursions SGP4
  // layers on top (well under 25 km for every catalog we model).
  const double apogee_radius_km = a_ * (1.0 + ecco_) * Sgp4Constants::radiusearthkm;
  return apogee_radius_km - spherical_earth_radius_km + 25.0;
}

}  // namespace satnet::orbit
