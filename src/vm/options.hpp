// Interpreter-level toggles for the paper's §4.2 / §4.4 modifications; each
// maps to one ablation in the evaluation.
#pragma once

#include "common/types.hpp"

namespace gilfree::vm {

struct VmOptions {
  /// §4.2: treat getlocal/getinstancevariable/getclassvariable/send/
  /// opt_plus/opt_minus/opt_mult/opt_aref as additional yield points.
  /// Without them most transactions overflow their store footprint.
  bool extended_yield_points = true;

  /// §4.4 (a): keep the "running thread" pointer in thread-local storage
  /// instead of a global the transaction rewrites at every begin.
  bool thread_local_current_thread = true;

  /// §4.4 (d) method caches: fill an empty cache once instead of updating
  /// it on every miss (costs some single-thread performance, §5.6).
  bool htm_friendly_method_caches = true;

  /// §4.4 (d) ivar caches: guard by ivar-table identity instead of class
  /// identity, eliminating misses across shape-compatible classes.
  bool ivar_cache_table_guard = true;
};

}  // namespace gilfree::vm
