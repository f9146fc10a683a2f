"""Set-up probe: import ddkit and ddkit.cli, build one workload's models, exit.

Run as ``python3 perfbench/setup_child.py <src dir> <workload>``.  The
benchmark times this process from start to exit for ``setup_s`` and runs
it under ``-X importtime`` for the per-module import breakdown.
"""

import sys


def main(src, workload):
    sys.path.insert(0, src)
    import ddkit
    import ddkit.cli  # noqa: F401
    import workloads
    workloads.build_models(workload)
    return 0 if ddkit.__file__.startswith(src) else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
