"""The command contracts of the ``archcredit`` CLI, one case per command.

Every command either exits 0 with finite values, or exits 2 (a configuration
error) or 3 (a row that failed) with a message naming the cause, in bounded
time and without a ``RuntimeWarning``.  A case pins one command to that
contract:

- ``id``: the case's name;
- ``argv``: the arguments after ``archcredit``; a dict in it is the JSON of a
  config file, written to a file whose path takes its place;
- ``code``: the exit code;
- ``rows``: the number of data rows on stdout (0: stdout is empty);
- ``err`` (optional): text that stderr holds, with the number of times it
  appears;
- ``fields`` (optional): per row, in order, the fields that are filled
  (True), empty ("") or equal to a text;
- ``ends_with`` (optional): an argv' that exits 0 alone, and whose rows are
  the last rows of this command, byte for byte.

Every case also checks what the contract says of every command: stderr holds
no "RuntimeWarning" and no "Traceback", and each filled field of a row, its
method aside, is a finite number.  ``test_contracts.py`` runs the cases
in-process and through an executable.  This module imports only the
standard library.
"""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """A TimeoutError in the block once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# alpha = 200, l = 100, n = 1000, b = 0.5: l**alpha = 100**200 overflows and
# phi(1 - f_n) = (-log1p(-1e-3))**200 underflows, but the model is valid and
# the conditional estimator reads it
STEEP = ["--alpha", "200", "--l", "100", "--n", "1000", "--b", "0.5"]
STEEP_RATE = "largest l_j**alpha = 100**200 is not finite"
# l**alpha = 1e300 and 1e-300 at alpha = 100: past v*, v l**alpha of the fast
# group passes the float range, where its terms are exact limits
WIDE = {"groups": [{"exposure": 1, "pd_scale": 1000, "count": 5},
                   {"exposure": 1, "pd_scale": 0.001, "count": 5}],
        "scale": {"kind": "constant", "value": 1e-4}}
# at alpha = 30 and b = 1.4e-320, v* l**alpha of the pd_scale 0.5 group
# underflows to 0, where GammaUpper(s, 0) = Gamma(s)
SLOW = {"groups": [{"exposure": 1, "pd_scale": 0.5, "count": 300},
                   {"exposure": 2, "pd_scale": 0.8, "count": 200}]}
# v* at b = 1e-320 is subnormal, so its solve stalls
SUBNORMAL = ["asymptotic", "--alpha", "5", "--l", "50", "--n", "1000"]
TOTAL = "total exposure sum_j count_j*exposure_j is not finite"
TAIL = {"method": "asymptotic_tail", "asymptotic": True}
ES = {"method": "asymptotic_es", "asymptotic": True}

CASES = [
    # an argument that the command does not take is a usage error that names it
    dict(id="unknown-argument", argv=["estimate", "--bogus", "1"], code=2, rows=0,
         err={"unrecognized arguments: --bogus 1": 1}),
    dict(id="asymptotic-es", argv=["asymptotic", "--n", "100", "--b", "0.8", "--es"], code=0,
         rows=2, fields=[TAIL, ES]),
    # a model whose phi underflows is a valid point for the asymptotics and a
    # configuration error for an estimator
    dict(id="phi-underflow-asymptotic",
         argv=["asymptotic", "--alpha", "100", "--n", "1000", "--es"],
         code=0, rows=2, fields=[TAIL, ES]),
    dict(id="phi-underflow-estimate",
         argv=["estimate", "--alpha", "100", "--n", "1000", "--m", "10"],
         code=2, rows=0, err={"phi(1 - l_j f_n) = 0 underflows": 1}),
    # where l**alpha overflows, the asymptotic rows fail in bounded time,
    # naming the rate
    dict(id="steep-rate-asymptotic", argv=["asymptotic", *STEEP, "--es"], code=3, rows=2,
         err={STEEP_RATE: 2},
         fields=[{"method": "asymptotic_tail", "asymptotic": ""},
                 {"method": "asymptotic_es", "asymptotic": ""}]),
    # importance sampling, whose phi(1 - f_n) underflows, is a configuration error
    dict(id="steep-rate-importance",
         argv=["estimate", "--method", "importance", *STEEP, "--m", "100"],
         code=2, rows=0, err={"phi(1 - f_n) underflows to 0": 1}),
    # a conditional row keeps its estimate when its asymptotic column fails
    dict(id="steep-rate-estimate-kept",
         argv=["estimate", "--method", "conditional", "--asymptotic", *STEEP, "--m", "100"],
         code=3, rows=1, err={STEEP_RATE: 1},
         fields=[{"estimate": True, "std_error": True, "rel_error_pct": True,
                  "var_reduction": True, "asymptotic": "", "discrepancy_pct": ""}]),
    dict(id="wide-rates-shortfall",
         argv=["asymptotic", "--config", WIDE, "--alpha", "100", "--b", "0.6", "--es"],
         code=0, rows=2, fields=[TAIL, ES]),
    # a level whose v* is subnormal fails alone, and the level solved in the
    # same batch prints the rows it prints alone
    dict(id="subnormal-level-fails-alone",
         argv=[*SUBNORMAL, "--b", "1e-320", "--b", "0.5", "--es"],
         code=3, rows=4, err={"Newton solve for v* at b=1e-320 stalled": 2},
         fields=[{"method": "asymptotic_tail", "asymptotic": ""},
                 {"method": "asymptotic_es", "asymptotic": ""}, TAIL, ES],
         ends_with=[*SUBNORMAL, "--b", "0.5", "--es"]),
    # the sizes of an n grid share one loss curve, and n = 500 prints the rows it prints alone
    dict(id="n-grid-shares-curve", argv=["asymptotic", "--n", "100", "--n", "500", "--es"],
         code=0, rows=4, ends_with=["asymptotic", "--n", "500", "--es"]),
    dict(id="underflowing-rate-shortfall",
         argv=["asymptotic", "--config", SLOW, "--alpha", "30", "--b", "1.4e-320", "--es"],
         code=0, rows=2, fields=[TAIL, ES]),
    # a total exposure past the float range is a configuration error for every
    # command, named as such and without an overflow warning
    dict(id="overflowing-total-estimate", argv=["estimate", "--c", "1e308", "--b", "1e307"],
         code=2, rows=0, err={TOTAL: 1}),
    dict(id="overflowing-total-asymptotic",
         argv=["asymptotic", "--c", "1e306", "--b", "1e305", "--n", "1000", "--es"],
         code=2, rows=0, err={TOTAL: 1}),
    # with a finite total, the shortfall of the same scale is finite (3.9e307)
    dict(id="large-finite-total",
         argv=["asymptotic", "--c", "1e305", "--b", "1e304", "--n", "1000", "--es"],
         code=0, rows=2, fields=[TAIL, ES]),
]
