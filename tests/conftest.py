import numpy as np
import pytest

import gasgate as gg
from gasgate.synth import DEFAULT_LIMIT_KNOTS, OracleRegion

#: one "acceptance NN PASS/FAIL: ..." line per acceptance-gate criterion,
#: echoed in the terminal summary by the hook below
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def oracle_corpus():
    """500-sample zero-noise corpus over the full default oxygen window."""
    return gg.generate(gg.default_region(), n=500, seed=42, noise=0.0)


@pytest.fixture(scope="session")
def span_region():
    """Same limit curves, oxygen window restricted to the anchor span 15..20.

    Inside this window the band geometry is representable by the logistic
    feature set, so interval-recovery checks compare like with like; the
    default window's flat extrapolation tails are exercised elsewhere.
    """
    o2s, lows, highs = zip(*DEFAULT_LIMIT_KNOTS)
    return OracleRegion(o2s, lows, highs, o2_window=(15.0, 20.0))


@pytest.fixture(scope="session")
def span_corpus(span_region):
    return gg.generate(span_region, n=500, seed=42, noise=0.0)


@pytest.fixture(scope="session")
def small_corpus():
    """Quick-fit corpus for tests that only need plausible data."""
    return gg.generate(gg.default_region(), n=120, seed=3, noise=0.0)


@pytest.fixture(scope="session")
def noisy_small_corpus():
    """Noisy enough that one pass of SMO (``max_passes=1``) leaves the RBF
    fits on it unconverged, while the default budget converges them."""
    return gg.generate(gg.default_region(), n=120, seed=0, noise=0.2)


@pytest.fixture(scope="session")
def featurized_small(small_corpus):
    params = gg.fit_normalization(small_corpus)
    X = gg.featurize(params, small_corpus)
    return params, X, small_corpus.exploded


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
