import sys

import pytest


@pytest.fixture
def digit_limit():
    """Python's default int-string digit limit (4300) for one test, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
