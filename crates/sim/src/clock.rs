//! Cycle and clock-domain bookkeeping.
//!
//! §VII-E of the paper: "The maximum frequency of CS core and EMS core are
//! 2.5GHz and 750MHz respectively." All timing in the simulator is expressed
//! in *CS cycles*; EMS work is converted through the domain ratio.

/// A duration or timestamp in CS-core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating addition.
    pub fn saturating_add(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(other.0))
    }

    /// Converts to nanoseconds at the CS frequency.
    pub fn as_nanos(self, clocks: &ClockDomains) -> f64 {
        self.0 as f64 / clocks.cs_ghz
    }

    /// Converts to seconds at the CS frequency.
    pub fn as_secs(self, clocks: &ClockDomains) -> f64 {
        self.as_nanos(clocks) / 1e9
    }
}

impl core::ops::Add for Cycles {
    type Output = Cycles;
    /// Saturating: long seeded fault campaigns accumulate exponential
    /// back-off charges, and a wrapped clock would be a worse lie than a
    /// pinned one.
    fn add(self, rhs: Cycles) -> Cycles {
        self.saturating_add(rhs)
    }
}

impl core::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = self.saturating_add(rhs);
    }
}

impl core::ops::Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl core::fmt::Display for Cycles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// The two clock domains of the SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomains {
    /// CS core frequency in GHz (paper: 2.5).
    pub cs_ghz: f64,
    /// EMS core frequency in GHz (paper: 0.75).
    pub ems_ghz: f64,
}

impl Default for ClockDomains {
    fn default() -> Self {
        ClockDomains {
            cs_ghz: 2.5,
            ems_ghz: 0.75,
        }
    }
}

impl ClockDomains {
    /// Converts EMS-domain cycles into CS-domain cycles (the simulator's
    /// common currency). One EMS cycle spans `cs_ghz / ems_ghz` CS cycles.
    pub fn ems_to_cs(&self, ems_cycles: u64) -> Cycles {
        Cycles((ems_cycles as f64 * self.cs_ghz / self.ems_ghz).round() as u64)
    }

    /// Converts a wall-clock duration in seconds to CS cycles.
    pub fn secs_to_cs(&self, secs: f64) -> Cycles {
        Cycles((secs * self.cs_ghz * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ems_domain_is_slower() {
        let clocks = ClockDomains::default();
        // 750 MHz EMS cycle = 10/3 CS cycles at 2.5 GHz.
        assert_eq!(clocks.ems_to_cs(3), Cycles(10));
        assert_eq!(clocks.ems_to_cs(0), Cycles::ZERO);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(b - a, Cycles::ZERO, "subtraction saturates");
    }

    #[test]
    fn seconds_conversion_roundtrip() {
        let clocks = ClockDomains::default();
        let c = clocks.secs_to_cs(0.001);
        assert_eq!(c, Cycles(2_500_000));
        assert!((c.as_secs(&clocks) - 0.001).abs() < 1e-12);
    }
}
