import pytest

from builtin_models import builtin_models


@pytest.fixture(scope="session")
def models():
    """The six blowup models of the built-in link scenarios, keyed by short name."""
    return builtin_models()
