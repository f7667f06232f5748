"""Tests of the package namespace: every export resolves, and failures share one base."""

import fsim
from fsim.ingest import SchemaError


def test_every_export_resolves():
    assert len(set(fsim.__all__)) == len(fsim.__all__)
    for name in fsim.__all__:
        assert hasattr(fsim, name), name


def test_exported_errors_are_estimation_errors():
    exported = [getattr(fsim, name) for name in fsim.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
    assert fsim.EstimationError in errors
    for error in errors:
        if error is not SchemaError:
            # a ValueError base would let a bare `except ValueError` count it
            assert issubclass(error, fsim.EstimationError), error.__name__
            assert not issubclass(error, ValueError), error.__name__
