"""Exactness sweep of the heatmap CSV kernel against CPython's "%.17g".

    python3 tools/f17_sweep.py [--values N]

imports concepthead from the src directory beside this tool and checks that
`metrics._f17_csv` writes each value as `"%.17g" % x` does, byte for byte, on

- N random doubles in [1e-4, 1) (default 10**7): a third drawn uniformly over
  the doubles of that range (by bit pattern), a third uniform in value and a
  third log-uniform;
- the boundary sets of `boundary_values`: every double within 16 ulps of
  1e-4, 1e-3, 1e-2 and 0.1 and the 16 below 1.0; dyadic m / 2**p values,
  which tie exactly at the 17th digit or have short texts; and the four-digit
  decimals i / 10**4, whose 17-digit rounding often carries into trailing
  zeros.

Values go through the kernel in batches, one value per map. The exit status
is 0 when every text matches. Otherwise the first value whose text differs
is printed, with both texts, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

LOW, HIGH = 1e-4, 1.0  # the kernel's range, [LOW, HIGH)
BATCH = 1 << 16         # values per kernel call
DRAW = 1 << 20          # random values drawn at a time


def in_range(x: np.ndarray) -> np.ndarray:
    return x[(x >= LOW) & (x < HIGH)]


def boundary_values() -> np.ndarray:
    """The doubles where the exponent, the rounding or the trailing zeros are
    hardest to get right (see the module docstring)."""
    near = [np.float64(c).view(np.int64) + np.arange(-16, 17) for c in (1e-4, 1e-3, 1e-2, 0.1)]
    near.append(np.float64(1.0).view(np.int64) - np.arange(1, 17))
    sets = [np.concatenate(near).view(np.float64)]
    for k in (-1, -2, -3, -4):
        # x = m / 2**(17 - k) with m odd has x * 10**(16 - k) = m * 5**(16 - k) / 2,
        # a tie at the 17th digit when x lies in the decade [10**k, 10**(k + 1)).
        x = np.arange(1, 2 ** (17 - k), 2) / 2.0 ** (17 - k)
        sets.append(x[(x >= 10.0 ** k) & (x < 10.0 ** (k + 1))])
    sets.extend(np.arange(1, 2 ** p, 2) / 2.0 ** p for p in range(1, 14))  # short texts
    sets.append(np.arange(1, 10000) / 1e4)
    return in_range(np.concatenate(sets))


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """About n doubles in [LOW, HIGH): by bit pattern, uniform and log-uniform,
    a third each; the few draws that round out of the range are dropped."""
    third = -(-n // 3)
    bits = rng.integers(np.float64(LOW).view(np.int64), np.float64(HIGH).view(np.int64), third)
    return in_range(np.concatenate([bits.view(np.float64), rng.uniform(LOW, HIGH, third),
                                    10.0 ** rng.uniform(np.log10(LOW), 0.0, third)])[:n])


def first_mismatch(values: np.ndarray) -> tuple[float, bytes, bytes] | None:
    """The first value whose kernel text differs from "%.17g", with the kernel's
    text and the reference; None when all match."""
    from concepthead import metrics

    for start in range(0, values.size, BATCH):
        batch = values[start:start + BATCH]
        for x, text in zip(batch.tolist(), metrics._f17_csv(batch.reshape(-1, 1, 1))):
            if text != b"%.17g\n" % x:
                return x, text, b"%.17g\n" % x
    return None


def value_sets(n: int):
    """The boundary values, then n random values, DRAW at a time."""
    yield boundary_values()
    rng = np.random.default_rng(0)
    for done in range(0, n, DRAW):
        yield random_values(rng, min(DRAW, n - done))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10 ** 7,
                        help="random values to check besides the boundary sets")
    args = parser.parse_args(argv)
    checked = 0
    for values in value_sets(args.values):
        mismatch = first_mismatch(values)
        if mismatch is not None:
            x, got, want = mismatch
            print(f"mismatch at {x!r} ({x.hex()}): kernel {got!r}, %.17g {want!r}")
            return 1
        checked += values.size
    print(f"{checked} values match %.17g")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
