"""Keep the docstring examples honest."""

import doctest

import mbflow._fplinalg
import mbflow.examples
import mbflow.homalg
import mbflow.twisted


def test_homalg_doctests():
    failures, tried = doctest.testmod(mbflow.homalg)
    assert tried > 0
    assert failures == 0


def test_examples_doctests():
    failures, tried = doctest.testmod(mbflow.examples)
    assert tried > 0
    assert failures == 0


def test_twisted_doctests():
    failures, tried = doctest.testmod(mbflow.twisted)
    assert tried > 0
    assert failures == 0


def test_fplinalg_doctests():
    failures, tried = doctest.testmod(mbflow._fplinalg)
    assert tried > 0
    assert failures == 0
