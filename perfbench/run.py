"""tinydet benchmark: training, inference and evaluation on seeded synthetic scenes.

Run from the repository root:

    python3 perfbench/run.py --workload train128 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads are defined in workloads.py. With ``--trace 0`` the whole time goes
to an untraced closed loop and the last line carries the end-to-end metrics.
With ``--trace 1`` half the time is untraced and half runs under the tracer
(tracer.py); the last line carries the per-layer metrics and the tracing
overhead. ``--workload all`` runs each workload in its own child process, so
each has its own peak RSS.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every output check passed,
1 when one failed, 2 when the tinydet sources are missing. A record of the
machine, the run and every measurement is written to perfbench/out/.
"""

import os
import sys

# Set before numpy loads. One thread keeps the small GEMMs free of thread
# hand-off and of contention with other processes on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "tinydet", "__init__.py")):
        print(f"tinydet sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import bench
    sys.exit(bench.main())
