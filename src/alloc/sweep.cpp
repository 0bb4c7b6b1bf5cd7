#include "alloc/sweep.hpp"

namespace mfa::alloc {

const char* method_name(Method m) {
  switch (m) {
    case Method::kGpa:
      return "GP+A";
    case Method::kMinlp:
      return "MINLP";
    case Method::kMinlpG:
      return "MINLP+G";
  }
  return "?";
}

std::vector<double> constraint_range(double lo, double hi, double step) {
  MFA_ASSERT(step > 0.0 && lo > 0.0 && hi >= lo);
  std::vector<double> out;
  for (double v = lo; v <= hi + 1e-9; v += step) out.push_back(v);
  return out;
}

}  // namespace mfa::alloc
