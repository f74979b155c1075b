import pytest

from mfdl.quadrature import make_rule


@pytest.fixture(scope="session")
def rule64():
    return make_rule(64)
