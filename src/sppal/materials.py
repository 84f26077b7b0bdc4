"""Structural material table for plates and transducer segments.

Built-ins cover the three material classes the device uses: an aluminium
alloy (plates, horns, front masses), a stainless steel (back masses) and
a hard piezoceramic of the PZT class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError


@dataclass(frozen=True)
class PiezoProps:
    """33-mode piezoelectric constants (constant-field compliances).

    s33_e / s11_e : elastic compliance at constant E, longitudinal /
    radial [1/Pa]; d33 : charge constant [m/V]; eps33_s : clamped
    permittivity [F/m].
    """

    s33_e: float
    d33: float
    eps33_s: float
    s11_e: float

    @property
    def eps33_t(self) -> float:
        """Free permittivity eps33_s + d33^2/s33_e."""
        return self.eps33_s + self.d33 ** 2 / self.s33_e

    @property
    def k33_sq(self) -> float:
        """Longitudinal coupling factor squared."""
        return self.d33 ** 2 / (self.s33_e * self.eps33_t)

    @property
    def s33_d(self) -> float:
        """Stiffened (constant-D) compliance."""
        return self.s33_e * (1.0 - self.k33_sq)


@dataclass(frozen=True)
class Material:
    """Isotropic structural material.

    ``loss_factor`` is the hysteretic loss factor applied as a complex
    modulus E(1 + i*eta).  ``piezo`` is set only for piezoceramics.
    """

    name: str
    density: float         # kg/m^3
    youngs_modulus: float  # Pa
    poisson_ratio: float
    loss_factor: float
    piezo: PiezoProps | None = None

    def __post_init__(self):
        if self.density <= 0 or self.youngs_modulus <= 0:
            raise ParameterDomainError(f"{self.name}: density and modulus must be positive")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ParameterDomainError(f"{self.name}: poisson_ratio must be in (0, 0.5)")

    @property
    def rod_speed(self) -> float:
        """Thin-rod longitudinal wave speed sqrt(E/rho)."""
        if self.piezo is not None:
            return 1.0 / np.sqrt(self.density * self.piezo.s33_e)
        return float(np.sqrt(self.youngs_modulus / self.density))

    def radial_speed(self, ) -> float:
        """Radial-direction wave speed; differs from rod speed for piezo."""
        if self.piezo is not None:
            return 1.0 / np.sqrt(self.density * self.piezo.s11_e)
        return self.rod_speed


# Young's modulus of the piezo entry is the inverse 33-compliance so the
# generic rod-speed path stays consistent with the piezo constants.
_PZT_PROPS = PiezoProps(s33_e=13.9e-12, d33=225e-12, eps33_s=5.2e-9, s11_e=11.5e-12)

BUILTIN_MATERIALS = {
    "aluminum": Material("aluminum", density=2700.0, youngs_modulus=70.0e9,
                         poisson_ratio=0.33, loss_factor=0.001),
    "steel": Material("steel", density=7930.0, youngs_modulus=193.0e9,
                      poisson_ratio=0.29, loss_factor=0.001),
    "pzt": Material("pzt", density=7600.0, youngs_modulus=1.0 / _PZT_PROPS.s33_e,
                    poisson_ratio=0.31, loss_factor=0.01, piezo=_PZT_PROPS),
}


def get_material(name_or_material) -> Material:
    """Resolve a material by name from the built-in table, or pass through."""
    if isinstance(name_or_material, Material):
        return name_or_material
    try:
        return BUILTIN_MATERIALS[str(name_or_material)]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MATERIALS))
        raise ParameterDomainError(
            f"unknown material {name_or_material!r}; built-ins: {known}"
        ) from None
