import os

import pytest
from helpers import classify

from tritrade import enumeration, monomial


def pytest_collection_modifyitems(config, items):
    if os.environ.get("TRITRADE_NIGHTLY"):
        return
    skip = pytest.mark.skip(reason="nightly job; set TRITRADE_NIGHTLY=1")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def classes3():
    return enumeration.classify_all(3)


@pytest.fixture(scope="session")
def classes4():
    return enumeration.classify_all(4)


@pytest.fixture(scope="session")
def closure4():
    """The n = 4 reference classes by orbit closure, independent of the
    class layer."""
    return classify(enumeration.enumerate_functions(4), 4)


@pytest.fixture(scope="session")
def classes5():
    return enumeration.classify_all(5)


@pytest.fixture(scope="session")
def spectra():
    return {n: enumeration.spectrum(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def spectrum5():
    return enumeration.spectrum(5)


@pytest.fixture(scope="session")
def catalog2():
    return enumeration.bitrade_catalog(2)


@pytest.fixture(scope="session")
def catalog3():
    return enumeration.bitrade_catalog(3)


@pytest.fixture(scope="session")
def rank4():
    return monomial.rank_table(4)
