"""CAPEX/OPEX cost accounting with financing and amortisation.

The paper finances every CAPEX component at a fixed annual interest rate and
amortises it over the component's lifetime (12 years for the datacenter
building, power line and fiber, 24 years for solar/wind plants, 4 years for IT
equipment and batteries); land is fully recoverable, so only its financing
interest is a cost.  All cost figures in the paper's evaluation are quoted per
month, and that is the unit every method of :class:`CostModel` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.parameters import FrameworkParameters
from repro.energy.profiles import LocationProfile

MONTHS_PER_YEAR = 12.0


#: Magnitude below which a negative capital value is treated as LP solver
#: float noise (optimal provisioning variables sit on their zero bound and
#: come back as values like ``-2.9e-08``) and clamped to zero rather than
#: rejected.  Genuinely negative capital still raises.
CAPITAL_NOISE_TOLERANCE = 1e-3


def _clamp_capital(value: float, what: str = "capital") -> float:
    """Clamp tiny negative ``value`` from LP float noise; reject real negatives."""
    if value < 0:
        if value >= -CAPITAL_NOISE_TOLERANCE:
            return 0.0
        raise ValueError(f"{what} cannot be negative")
    return value


@dataclass(frozen=True)
class FinancingModel:
    """Turns an upfront capital cost into a monthly carrying cost.

    The monthly cost of a financed, amortised asset is modelled as interest on
    the outstanding capital plus straight-line depreciation over the
    amortisation period:

    ``monthly = capital * (annual_rate / 12) + capital / (amortisation_years * 12)``

    For fully recoverable assets (land) only the interest term applies.

    Capital values within ``CAPITAL_NOISE_TOLERANCE`` below zero are clamped
    to zero: cost entry points are routinely fed optimal LP variable values,
    which can undershoot their zero lower bound by solver tolerances.
    """

    annual_interest_rate: float = 0.0325

    def __post_init__(self) -> None:
        if self.annual_interest_rate < 0:
            raise ValueError("the interest rate cannot be negative")

    def monthly_cost(self, capital: float, amortisation_years: float) -> float:
        """Monthly carrying cost of a depreciating, financed asset."""
        capital = _clamp_capital(capital)
        if amortisation_years <= 0:
            raise ValueError("the amortisation period must be positive")
        interest = capital * self.annual_interest_rate / MONTHS_PER_YEAR
        depreciation = capital / (amortisation_years * MONTHS_PER_YEAR)
        return interest + depreciation

    def monthly_interest_only(self, capital: float) -> float:
        """Monthly financing cost of a fully recoverable asset (land)."""
        capital = _clamp_capital(capital)
        return capital * self.annual_interest_rate / MONTHS_PER_YEAR


@dataclass
class CostModel:
    """Per-location cost components of Table I, expressed in $/month.

    Every method that involves a provisioning decision takes the decision as
    an explicit argument (compute capacity, installed solar/wind, battery
    capacity, epoch energy series), which makes the model usable both for
    pricing a finished plan and as the coefficient source for the LP/MILP
    objective (all components are linear in the decision variables).
    """

    params: FrameworkParameters
    financing: FinancingModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.financing is None:
            self.financing = FinancingModel(self.params.annual_interest_rate)

    # -- CAPEX, size independent ------------------------------------------------
    def line_power_monthly(self, profile: LocationProfile) -> float:
        """Monthly cost of laying the power line to the nearest brown plant."""
        capital = self.params.cost_line_power_per_km * profile.distance_power_km
        return self.financing.monthly_cost(capital, self.params.datacenter_lifetime_years)

    def line_network_monthly(self, profile: LocationProfile) -> float:
        """Monthly cost of laying fiber to the nearest backbone point."""
        capital = self.params.cost_line_network_per_km * profile.distance_network_km
        return self.financing.monthly_cost(capital, self.params.datacenter_lifetime_years)

    def capex_independent_monthly(self, profile: LocationProfile) -> float:
        """``CAP_ind(d)``: size-independent CAPEX, $/month."""
        return self.line_power_monthly(profile) + self.line_network_monthly(profile)

    # -- CAPEX, size dependent -----------------------------------------------------
    def land_monthly(
        self,
        profile: LocationProfile,
        capacity_kw: float,
        solar_kw: float,
        wind_kw: float,
    ) -> float:
        """``landCost(d)`` financing: land is recoverable, only interest is paid."""
        area_m2 = (
            capacity_kw * self.params.area_dc_m2_per_kw
            + solar_kw * self.params.area_solar_m2_per_kw
            + wind_kw * self.params.area_wind_m2_per_kw
        )
        capital = profile.land_price_per_m2 * area_m2
        return self.financing.monthly_interest_only(capital)

    def building_dc_monthly(
        self, profile: LocationProfile, capacity_kw: float, size_class: str = "auto"
    ) -> float:
        """Monthly cost of constructing the datacenter building itself."""
        total_power_kw = capacity_kw * profile.max_pue
        price_per_kw = self._dc_price_per_kw(total_power_kw, size_class)
        capital = total_power_kw * price_per_kw
        return self.financing.monthly_cost(capital, self.params.datacenter_lifetime_years)

    def building_solar_monthly(self, solar_kw: float) -> float:
        """Monthly cost of constructing the solar plant."""
        capital = solar_kw * self.params.price_build_solar_per_kw
        return self.financing.monthly_cost(capital, self.params.renewable_lifetime_years)

    def building_wind_monthly(self, wind_kw: float) -> float:
        """Monthly cost of constructing the wind plant."""
        capital = wind_kw * self.params.price_build_wind_per_kw
        return self.financing.monthly_cost(capital, self.params.renewable_lifetime_years)

    def it_equipment_monthly(self, capacity_kw: float) -> float:
        """Monthly cost of servers and switches (``serverCost`` + ``switchCost``)."""
        capacity_kw = _clamp_capital(capacity_kw, what="capacity")
        servers = self.params.num_servers(capacity_kw)
        capital = servers * self.params.price_server
        capital += (servers / self.params.servers_per_switch) * self.params.price_switch
        return self.financing.monthly_cost(capital, self.params.it_lifetime_years)

    def battery_monthly(self, battery_kwh: float) -> float:
        """Monthly cost of the battery bank (``battCost``)."""
        capital = battery_kwh * self.params.price_battery_per_kwh
        return self.financing.monthly_cost(capital, self.params.battery_lifetime_years)

    # -- OPEX ---------------------------------------------------------------------------
    def network_bandwidth_monthly(self, capacity_kw: float) -> float:
        """``networkCost(d)``: external bandwidth, $/month."""
        capacity_kw = _clamp_capital(capacity_kw, what="capacity")
        return self.params.num_servers(capacity_kw) * self.params.price_bandwidth_per_server_month

    def brown_energy_monthly(
        self,
        profile: LocationProfile,
        brown_power_kw: np.ndarray,
        net_discharge_kw: np.ndarray | None = None,
        net_charge_kw: np.ndarray | None = None,
        credit_net_meter: float | None = None,
    ) -> float:
        """``brownCost(d)``: grid energy bill including net-metering settlement.

        ``brown_power_kw``, ``net_discharge_kw`` and ``net_charge_kw`` are epoch
        series aligned with ``profile.epochs``; the epoch weights convert them
        into annual energy, which is then divided by 12.
        """
        weights = profile.epochs.epoch_weights_hours()
        credit = self.params.credit_net_meter if credit_net_meter is None else credit_net_meter
        brown = np.asarray(brown_power_kw, dtype=float)
        if brown.shape != weights.shape:
            raise ValueError("the brown power series must have one value per epoch")
        net_dis = np.zeros_like(brown) if net_discharge_kw is None else np.asarray(net_discharge_kw, dtype=float)
        net_chg = np.zeros_like(brown) if net_charge_kw is None else np.asarray(net_charge_kw, dtype=float)
        annual_kwh = float(np.sum(weights * (brown + net_dis - credit * net_chg)))
        return profile.energy_price_per_kwh * annual_kwh / MONTHS_PER_YEAR

    def opex_monthly(
        self,
        profile: LocationProfile,
        capacity_kw: float,
        brown_power_kw: np.ndarray,
        net_discharge_kw: np.ndarray | None = None,
        net_charge_kw: np.ndarray | None = None,
        credit_net_meter: float | None = None,
    ) -> float:
        """``OP(d)``: operational cost, $/month."""
        return self.network_bandwidth_monthly(capacity_kw) + self.brown_energy_monthly(
            profile, brown_power_kw, net_discharge_kw, net_charge_kw, credit_net_meter
        )

    # -- linear coefficients for the optimiser --------------------------------------------
    def linear_coefficients(self, profile: LocationProfile, size_class: str) -> Dict[str, float]:
        """Monthly cost per unit of each decision variable at this location.

        Keys: ``capacity_kw``, ``solar_kw``, ``wind_kw``, ``battery_kwh``,
        ``brown_kwh_year``, ``net_discharge_kwh_year``, ``net_charge_kwh_year``
        and the constant ``fixed`` (CAP_ind).  The optimiser's objective is the
        sum over sited locations of these coefficients times the corresponding
        variables, which by construction equals the plan cost computed by the
        explicit methods above.
        """
        params = self.params
        per_kw_dc_land = self.financing.monthly_interest_only(
            profile.land_price_per_m2 * params.area_dc_m2_per_kw
        )
        per_kw_solar_land = self.financing.monthly_interest_only(
            profile.land_price_per_m2 * params.area_solar_m2_per_kw
        )
        per_kw_wind_land = self.financing.monthly_interest_only(
            profile.land_price_per_m2 * params.area_wind_m2_per_kw
        )
        dc_price_per_kw = (
            params.price_build_dc_small_per_kw
            if size_class == "small"
            else params.price_build_dc_large_per_kw
        )
        per_kw_building = self.financing.monthly_cost(
            profile.max_pue * dc_price_per_kw, params.datacenter_lifetime_years
        )
        per_kw_it = self.financing.monthly_cost(
            (params.price_server + params.price_switch / params.servers_per_switch)
            / params.power_per_server_kw,
            params.it_lifetime_years,
        )
        per_kw_bandwidth = params.price_bandwidth_per_server_month / params.power_per_server_kw
        return {
            "fixed": self.capex_independent_monthly(profile),
            "capacity_kw": per_kw_dc_land + per_kw_building + per_kw_it + per_kw_bandwidth,
            "solar_kw": per_kw_solar_land
            + self.financing.monthly_cost(
                params.price_build_solar_per_kw, params.renewable_lifetime_years
            ),
            "wind_kw": per_kw_wind_land
            + self.financing.monthly_cost(
                params.price_build_wind_per_kw, params.renewable_lifetime_years
            ),
            "battery_kwh": self.financing.monthly_cost(
                params.price_battery_per_kwh, params.battery_lifetime_years
            ),
            "brown_kwh_year": profile.energy_price_per_kwh / MONTHS_PER_YEAR,
            "net_discharge_kwh_year": profile.energy_price_per_kwh / MONTHS_PER_YEAR,
            "net_charge_kwh_year": -params.credit_net_meter
            * profile.energy_price_per_kwh
            / MONTHS_PER_YEAR,
        }

    # -- helpers -------------------------------------------------------------------------------
    def _dc_price_per_kw(self, total_power_kw: float, size_class: str) -> float:
        if size_class == "small":
            return self.params.price_build_dc_small_per_kw
        if size_class == "large":
            return self.params.price_build_dc_large_per_kw
        if size_class == "auto":
            return self.params.price_build_dc_per_kw(total_power_kw)
        raise ValueError(f"unknown datacenter size class {size_class!r}")
