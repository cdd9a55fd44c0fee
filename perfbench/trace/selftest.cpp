// Self-test of the span self-time arithmetic: a synthetic nested call
// tree on a scripted clock, plus a second thread, checked against
// self times worked out by hand. Exit 0 and "span self-test: OK" on
// success; a diagnostic and exit 1 otherwise.
#include <cmath>
#include <cstdio>
#include <thread>

#include "trace/span.hpp"

namespace {

using perfbench::trace::Key;
namespace tr = perfbench::trace;

std::int64_t g_fake_ns = 0;
std::int64_t fake_clock() { return g_fake_ns; }

void at(std::int64_t ns) { g_fake_ns = ns; }

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "span self-test: %s = %.12f, want %.12f\n", what,
                 got, want);
    ++g_failures;
  }
}

double self_of(const tr::Totals& t, Key k) {
  return t.self_s[static_cast<std::size_t>(k)];
}
std::uint64_t calls_of(const tr::Totals& t, Key k) {
  return t.calls[static_cast<std::size_t>(k)];
}

}  // namespace

int main() {
  tr::set_clock(&fake_clock);
  tr::reset();

  // dispatch [0, 1000)
  //   link [100, 400)
  //     vnf [150, 350)
  //       coding [200, 300)
  //         gf [220, 260)
  //   vnf [500, 900)        second call of the same key
  //     gf [600, 610)
  //     gf [700, 730)
  at(0);    tr::open(Key::kNetsimDispatch);
  at(100);  tr::open(Key::kNetsimLink);
  at(150);  tr::open(Key::kVnf);
  at(200);  tr::open(Key::kCoding);
  at(220);  tr::open(Key::kGf);
  at(260);  tr::close();
  at(300);  tr::close();
  at(350);  tr::close();
  at(400);  tr::close();
  if (tr::current_key(Key::kHarness) != Key::kNetsimDispatch) {
    std::fprintf(stderr, "span self-test: innermost key is wrong\n");
    ++g_failures;
  }
  at(500);  tr::open(Key::kVnf);
  at(600);  tr::open(Key::kGf);
  at(610);  tr::close();
  at(700);  tr::open(Key::kGf);
  at(730);  tr::close();
  at(900);  tr::close();
  at(1000); tr::close();
  if (tr::current_key(Key::kHarness) != Key::kHarness) {
    std::fprintf(stderr, "span self-test: fallback key is wrong\n");
    ++g_failures;
  }

  // A second thread's spans count in the all-thread totals only.
  std::thread other([] {
    at(2000); tr::open(Key::kCoding);
    at(2050); tr::close();
  });
  other.join();

  const tr::Totals main = tr::totals(true);
  const tr::Totals all = tr::totals(false);
  const double ns = 1e-9;
  expect_near("dispatch self", self_of(main, Key::kNetsimDispatch),
              (1000 - 300 - 400) * ns);
  expect_near("link self", self_of(main, Key::kNetsimLink), (300 - 200) * ns);
  expect_near("vnf self", self_of(main, Key::kVnf),
              (200 - 100 + 400 - 40) * ns);
  expect_near("coding self (main)", self_of(main, Key::kCoding),
              (100 - 40) * ns);
  expect_near("coding self (all)", self_of(all, Key::kCoding),
              (100 - 40 + 50) * ns);
  expect_near("gf self", self_of(main, Key::kGf), (40 + 10 + 30) * ns);
  double sum = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(Key::kCount); ++k) {
    sum += main.self_s[k];
  }
  expect_near("sum of self = root span", sum, 1000 * ns);
  if (calls_of(main, Key::kGf) != 3 || calls_of(main, Key::kVnf) != 2 ||
      calls_of(all, Key::kCoding) != 2) {
    std::fprintf(stderr, "span self-test: call counts are wrong\n");
    ++g_failures;
  }
  tr::reset();
  if (g_failures != 0) return 1;
  std::printf("span self-test: OK\n");
  return 0;
}
