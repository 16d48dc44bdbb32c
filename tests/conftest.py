"""Shared fixtures: desk-scale default config and cached eigensolutions
(the values live in `desk`)."""

import pytest

from annulus_rotor.profile import TrapezoidProfile
from annulus_rotor.quadrature import ZGrid
from desk import DESK_CFG, DESK_EPS, DESK_KAPPA, eigensolution


@pytest.fixture(scope="session")
def desk_cfg():
    return DESK_CFG


@pytest.fixture(scope="session")
def zg96():
    return ZGrid(96)


@pytest.fixture(scope="session")
def desk_profile():
    return TrapezoidProfile(DESK_CFG, DESK_EPS, DESK_KAPPA)


@pytest.fixture(scope="session")
def desk_eig():
    return eigensolution(DESK_EPS)
