"""Self-test of the tracer: a delay planted in one layer's wrapper must show
up in that layer's self time and in no other layer's.

    python3 bench/selftest.py

Runs a small traced job set (one CLI tolerance run, one visibility LP, one
behavior table) once plain and once per planted layer, and exits 1 when the
planted time lands anywhere else. Nested layers are chosen on purpose: eigh
runs inside seesaw inside the CLI, and the simplex inside the visibility LP,
so a self time that failed to subtract its children would fail the test.
"""

import contextlib
import io
import sys

import run

run._import_belltol()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from belltol import cli, polytope, qvalue, states  # noqa: E402

PLANTED_S = 0.3  # total delay planted per layer, spread over its calls
PLANTED = ("linalg.eigh", "qvalue.seesaw", "polytope.simplex", "scenario.lhv")


def jobs():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["tolerance", "--state", "ghz:2,4", "--restarts", "2", "--seed", "3"])
    meas = workloads._yx(3)
    polytope.critical_visibility(states.ghz(2, 3), states.NoiseSpec.white(), meas)
    qvalue.behavior(states.ghz(2, 5), workloads._assignment(
        workloads._random_bases(np.random.default_rng(0), 5, 2)))


def traced_self_times(delays):
    tracer = tracing.Tracer(delays)
    tracer.install()
    try:
        tracer.active = True
        jobs()
        tracer.active = False
    finally:
        tracer.uninstall()
    return dict(tracer.self_time), dict(tracer.calls)


def main() -> int:
    jobs()  # warm-up
    base, calls = traced_self_times({})
    failures = 0
    for layer in PLANTED:
        planted, _ = traced_self_times({layer: PLANTED_S / calls[layer]})
        expected = PLANTED_S
        gained = planted[layer] - base[layer]
        # other layers may move by run-to-run noise, never by the planted time
        leaks = {name: planted.get(name, 0.0) - base.get(name, 0.0)
                 for name in planted if name != layer}
        worst = max(leaks, key=lambda name: abs(leaks[name]))
        ok = gained >= 0.9 * expected and abs(leaks[worst]) < 0.25 * expected
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {layer}: planted {expected:.3f} s over "
              f"{calls[layer]} calls, self time gained {gained:.3f} s; largest change "
              f"elsewhere {worst} {leaks[worst]:+.3f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
