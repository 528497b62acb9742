import pytest

from permpriv import fixtures
from permpriv.privacy import Release, certify_dataset
from permpriv.reverse_map import reverse_map_table
from permpriv.table import RankProfile

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def example():
    original, masked = fixtures.running_example()
    return original, masked


@pytest.fixture(scope="session")
def original(example):
    return example[0]


@pytest.fixture(scope="session")
def masked(example):
    return example[1]


@pytest.fixture(scope="session")
def permuted(original, masked):
    return reverse_map_table(original, masked)


@pytest.fixture(scope="session")
def masked_ranks(masked):
    return RankProfile.of(masked)


@pytest.fixture(scope="session")
def permuted_ranks(permuted):
    return RankProfile.of(permuted)


@pytest.fixture(scope="session")
def certificate(original, masked):
    return certify_dataset(original, Release(masked))
