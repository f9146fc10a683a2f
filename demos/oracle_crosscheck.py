"""Analytic drawdown laws against the Monte Carlo oracle.

Runs the packaged verification report for an Ornstein-Uhlenbeck model:
three tail probabilities and one transform value, each compared at 3
standard errors to the simulation estimate extrapolated from one coupled
(dt, dt/2) run, with the move between the two step sizes shown so the
discretization bias is visible next to the noise.
"""

from ddkit import McConfig, ornstein_uhlenbeck
from ddkit.verify import verification_report

model = ornstein_uhlenbeck(theta=1.0)
cfg = McConfig(n_paths=40000, dt=0.01, t_max=40.0, seed=12)

report = verification_report(model, x=0.0, delta=1.0, cfg=cfg)
for line in report.lines():
    print(line)

# the same machinery backs `ddkit verify --config ...`, exit code 4
# when any row lands outside the 3 sigma band
print("passed" if report.passed else "FAILED")
