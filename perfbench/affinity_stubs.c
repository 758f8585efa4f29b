/* CPU affinity of the calling thread, for spreading a run's jobs over
   the CPUs it may use. CPUs are passed as a bit mask of the first 62. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_affinity(value unit)
{
  cpu_set_t set;
  intnat mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int c = 0; c < 62; c++)
    if (CPU_ISSET(c, &set)) mask |= (intnat)1 << c;
  return Val_long(mask);
}

value perfbench_set_affinity(value mask)
{
  cpu_set_t set;
  intnat m = Long_val(mask);
  CPU_ZERO(&set);
  for (int c = 0; c < 62; c++)
    if (m & ((intnat)1 << c)) CPU_SET(c, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
