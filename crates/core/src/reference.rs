//! Static reference data from the paper (its Fig. 1).

/// One row of the paper's Fig. 1: power and performance of the Intel IXP
/// network-processor family.
#[derive(Debug, Clone, PartialEq)]
pub struct IxpFamilyEntry {
    /// Product name.
    pub name: &'static str,
    /// Aggregate performance, MIPS.
    pub performance_mips: u32,
    /// Media bandwidth, Gbps.
    pub media_bandwidth_gbps: f64,
    /// Microengine clock frequency, MHz.
    pub me_freq_mhz: u32,
    /// Number of microengines.
    pub num_mes: u32,
    /// Typical power dissipation, W.
    pub power_w: f64,
}

impl IxpFamilyEntry {
    /// Performance per watt, MIPS/W — the trend Fig. 1 is quoted for.
    #[must_use]
    pub fn mips_per_watt(&self) -> f64 {
        f64::from(self.performance_mips) / self.power_w
    }
}

/// The paper's Fig. 1 table.
#[must_use]
pub fn ixp_family() -> [IxpFamilyEntry; 3] {
    [
        IxpFamilyEntry {
            name: "IXP1200",
            performance_mips: 1200,
            media_bandwidth_gbps: 1.0,
            me_freq_mhz: 232,
            num_mes: 6,
            power_w: 4.5,
        },
        IxpFamilyEntry {
            name: "IXP2400",
            performance_mips: 4800,
            media_bandwidth_gbps: 2.4,
            me_freq_mhz: 600,
            num_mes: 8,
            power_w: 10.0,
        },
        IxpFamilyEntry {
            name: "IXP2800",
            performance_mips: 23000,
            media_bandwidth_gbps: 10.0,
            me_freq_mhz: 1400,
            num_mes: 16,
            power_w: 14.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_fig1() {
        let t = ixp_family();
        assert_eq!(t[0].name, "IXP1200");
        assert_eq!(t[0].me_freq_mhz, 232);
        assert_eq!(t[0].num_mes, 6);
        assert_eq!(t[2].performance_mips, 23000);
        assert_eq!(t[2].power_w, 14.0);
    }

    #[test]
    fn power_grows_with_complexity() {
        let t = ixp_family();
        assert!(t[0].power_w < t[1].power_w);
        assert!(t[1].power_w < t[2].power_w);
    }

    #[test]
    fn efficiency_improves_across_generations() {
        let t = ixp_family();
        assert!(t[0].mips_per_watt() < t[1].mips_per_watt());
        assert!(t[1].mips_per_watt() < t[2].mips_per_watt());
    }
}
