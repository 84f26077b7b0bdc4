"""Air properties and atmospheric absorption (ISO 9613-1).

The medium object bundles the ambient state (temperature, humidity,
pressure) with the derived quantities every field computation needs:
small-signal sound speed, density and the nonlinearity coefficient.
Pure-tone atmospheric attenuation follows ISO 9613-1:1993, Section 4,
with the water-vapour molar concentration from the Annex B saturation
vapour pressure relation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterDomainError

# Reference values of ISO 9613-1
_T0_K = 293.15        # reference air temperature [K]
_T01_K = 273.16       # triple-point isotherm [K]
_P_REF_KPA = 101.325  # reference ambient pressure [kPa]

_R_DRY_AIR = 287.058  # specific gas constant of dry air [J/(kg K)]

#: conversion between attenuation in dB/m and Np/m (20/ln 10)
DB_PER_NEPER = 8.685889638065037
#: the values of :attr:`Medium.absorption_model`; "none" is a lossless medium
ABSORPTION_MODELS = ("iso9613-1", "none")


@dataclass(frozen=True)
class Medium:
    """Ambient air state and derived acoustic properties.

    Attributes
    ----------
    temperature : float
        Ambient temperature in degrees Celsius.
    relative_humidity : float
        Relative humidity as a fraction in [0, 1].
    pressure : float
        Ambient pressure in kPa.
    sound_speed : float
        Small-signal sound speed in m/s.
    density : float
        Air density in kg/m^3.
    beta : float
        Coefficient of nonlinearity (1 + B/2A), dimensionless.
    """

    temperature: float
    relative_humidity: float
    pressure: float
    sound_speed: float
    density: float
    beta: float
    absorption_model: str = "iso9613-1"

    def __post_init__(self):
        if self.absorption_model not in ABSORPTION_MODELS:
            raise ParameterDomainError(
                f"unknown absorption model {self.absorption_model!r}"
            )
        if not (self.sound_speed > 0 and self.density > 0 and self.beta > 0):
            raise ParameterDomainError(
                "sound_speed, density and beta must all be positive"
            )
        if not 0.0 <= self.relative_humidity <= 1.0:
            raise ParameterDomainError("relative_humidity must lie in [0, 1]")
        if not self.pressure > 0:
            raise ParameterDomainError("pressure must be positive")

    def wavelength(self, f) -> float:
        """Acoustic wavelength c0/f in metres."""
        return self.sound_speed / f

    def wavenumber(self, f) -> float:
        """Real wavenumber 2*pi*f/c0 in rad/m."""
        return 2.0 * np.pi * f / self.sound_speed

    def complex_wavenumber(self, f) -> complex:
        """Lossy wavenumber k - i*alpha for the exp(+i w t) convention."""
        return self.wavenumber(f) - 1j * absorption_coeff(self, f)

    def lossless(self) -> "Medium":
        """Copy of this medium with atmospheric absorption switched off."""
        return replace(self, absorption_model="none")


def build_medium(temperature: float = 20.0,
                 relative_humidity: float = 0.70,
                 pressure: float = 101.325,
                 beta: float = 1.2) -> Medium:
    """Construct a :class:`Medium` from the ambient state.

    Sound speed uses the ideal-gas relation 331.3*sqrt(1 + T/273.15);
    density follows the ideal gas law with the dry-air gas constant
    (the humidity correction is below 0.5 % at room temperature and is
    neglected).  ``beta`` defaults to 1.2, the standard value for air.

    Parameters
    ----------
    temperature : float
        Degrees Celsius, restricted to [-20, 50].
    relative_humidity : float
        Fraction in [0, 1].
    pressure : float
        kPa, restricted to (0, 200].
    """
    if not -20.0 <= temperature <= 50.0:
        raise ParameterDomainError(
            f"temperature {temperature} degC outside [-20, 50]"
        )
    if not 0.0 <= relative_humidity <= 1.0:
        raise ParameterDomainError(
            f"relative_humidity {relative_humidity} outside [0, 1]"
        )
    if not 0.0 < pressure <= 200.0:
        raise ParameterDomainError(f"pressure {pressure} kPa outside (0, 200]")

    t_kelvin = temperature + 273.15
    c0 = 331.3 * np.sqrt(1.0 + temperature / 273.15)
    rho0 = pressure * 1e3 / (_R_DRY_AIR * t_kelvin)
    return Medium(
        temperature=temperature,
        relative_humidity=relative_humidity,
        pressure=pressure,
        sound_speed=float(c0),
        density=float(rho0),
        beta=beta,
    )


def _vapour_molar_concentration(medium: Medium) -> float:
    """Molar concentration of water vapour h in percent (ISO 9613-1, B.1-B.3)."""
    t = medium.temperature + 273.15
    p_ratio = medium.pressure / _P_REF_KPA
    # saturation vapour pressure relative to the reference pressure
    psat_ratio = 10.0 ** (-6.8346 * (_T01_K / t) ** 1.261 + 4.6151)
    hr_pct = 100.0 * medium.relative_humidity
    return hr_pct * psat_ratio / p_ratio


def absorption_coeff_db(medium: Medium, f):
    """Pure-tone atmospheric attenuation in dB/m per ISO 9613-1 Section 4.

    ``f`` may be a scalar or an array of frequencies in Hz; all entries
    must be positive.  Media built with ``absorption_model="none"``
    return zero attenuation.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0.0):
        raise ParameterDomainError("frequency must be positive")
    if medium.absorption_model == "none":
        return 0.0 if f.ndim == 0 else np.zeros_like(f)

    t = medium.temperature + 273.15
    t_rel = t / _T0_K
    p_rel = medium.pressure / _P_REF_KPA
    h = _vapour_molar_concentration(medium)

    # relaxation frequencies of oxygen and nitrogen (Eqs. 3 and 4)
    fr_o = p_rel * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h))
    fr_n = p_rel * t_rel ** -0.5 * (
        9.0 + 280.0 * h * np.exp(-4.170 * (t_rel ** (-1.0 / 3.0) - 1.0))
    )

    # classical + rotational term and the two vibrational relaxation terms
    alpha = 8.686 * f ** 2 * (
        1.84e-11 * np.sqrt(t_rel) / p_rel
        + t_rel ** -2.5 * (
            0.01275 * np.exp(-2239.1 / t) * fr_o / (fr_o ** 2 + f ** 2)
            + 0.1068 * np.exp(-3352.0 / t) * fr_n / (fr_n ** 2 + f ** 2)
        )
    )
    if alpha.ndim == 0:
        return float(alpha)
    return alpha


def absorption_coeff(medium: Medium, f):
    """Pure-tone atmospheric attenuation in Np/m (dB value / 8.686)."""
    return absorption_coeff_db(medium, f) / DB_PER_NEPER
