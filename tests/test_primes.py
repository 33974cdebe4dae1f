"""tools/primes.py lists the first primes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "primes.py"
_spec = importlib.util.spec_from_file_location("primes", TOOL)
primes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(primes)


def test_first_primes_match_trial_division():
    expected = [n for n in range(2, 2_000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert primes.first_primes(len(expected)) == expected
    assert primes.first_primes(0) == []


def test_the_8000th_prime():
    listed = primes.first_primes(8_000)
    assert len(listed) == 8_000 and listed[-1] == 81_799
