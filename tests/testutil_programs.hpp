// Seeded MiniRuby program generator shared by property-style tests
// (test_fault, test_golden_digest).
//
// The generated programs exercise every extended-yield-point opcode family
// (locals, instance variables, class variables, sends, operators, array
// element access) across threads. Per-thread state is thread-local and the
// only shared accumulation is commutative and mutex-protected, so the final
// recorded sum is schedule-independent: any divergence between two runs of
// the same program means the VM executed it differently, not that the
// scheduler interleaved it differently.
#pragma once

#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace gilfree::testutil {

inline std::string random_program(u64 seed) {
  Rng rng(seed);
  std::ostringstream body;
  const int stmts = 4 + static_cast<int>(rng.next_below(5));
  for (int s = 0; s < stmts; ++s) {
    switch (rng.next_below(5)) {
      case 0:
        body << "      x = x + " << 1 + rng.next_below(7) << "\n";
        break;
      case 1:
        body << "      x = x - " << 1 + rng.next_below(3) << "\n";
        break;
      case 2:
        body << "      a[" << rng.next_below(4) << "] = a["
             << rng.next_below(4) << "] + " << 1 + rng.next_below(5) << "\n";
        break;
      case 3:
        body << "      b = b.bump(" << 1 + rng.next_below(9) << ")\n";
        break;
      default:
        body << "      x = x + b.base + b.get\n";
        break;
    }
  }
  std::ostringstream src;
  src << R"RUBY(
class Box
  def initialize
    @@base = 3
    @v = 1
  end
  def bump(k)
    @v = @v + k
    self
  end
  def get
    @v
  end
  def base
    @@base
  end
end
$mutex = Mutex.new
$sum = 0
threads = []
3.times do |t|
  threads << Thread.new(t) do |tid|
    x = tid + 1
    a = [0, 0, 0, 0]
    b = Box.new
    i = 0
    while i < 150
)RUBY";
  src << body.str();
  src << R"RUBY(      i = i + 1
    end
    $mutex.synchronize do
      $sum = $sum + x + a[0] + a[1] + a[2] + a[3] + b.get
    end
  end
end
threads.each do |t|
  t.join
end
__record("sum", $sum)
)RUBY";
  return src.str();
}

}  // namespace gilfree::testutil
