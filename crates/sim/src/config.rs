//! Machine description (the Table I of the paper).
//!
//! A [`SystemConfig`] fully describes the simulated hardware: core count,
//! cache geometry, latencies and interconnect parameters. Defaults resemble
//! the 16-core Golden-Cove-like system of the paper; the private L2/L3 and
//! DRAM are folded into a shared directory/LLC level plus a memory latency
//! (see DESIGN.md §3 for the substitution argument).

/// Core front-end parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Number of simulated cores (one hardware thread each).
    pub cores: usize,
    /// Cycles charged per non-memory TxVM instruction.
    pub cycles_per_op: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            cores: 16,
            cycles_per_op: 1,
        }
    }
}

/// Cache and memory hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// L1 data cache sets.
    pub l1_sets: usize,
    /// L1 data cache associativity (ways per set).
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Shared directory/LLC access latency in cycles (stands in for the
    /// paper's 30-cycle L3 round trip).
    pub dir_latency: u64,
    /// Main memory latency added on a directory miss.
    pub mem_latency: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            // 48 KiB / 12-way / 64 B lines => 64 sets.
            l1_sets: 64,
            l1_ways: 12,
            l1_hit_latency: 1,
            dir_latency: 30,
            mem_latency: 100,
        }
    }
}

/// Crossbar interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Per-hop link latency in cycles.
    pub link_latency: u64,
    /// Flits in a control message.
    pub control_flits: u64,
    /// Flits in a data-bearing message (64 B line / 16 B flits + header).
    pub data_flits: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            link_latency: 1,
            control_flits: 1,
            data_flits: 5,
        }
    }
}

/// Complete machine description.
///
/// # Example
///
/// ```
/// use chats_sim::SystemConfig;
/// let sys = SystemConfig::default();
/// assert_eq!(sys.core.cores, 16);
/// assert_eq!(sys.noc.data_flits, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemoryConfig,
    /// Interconnect parameters.
    pub noc: NocConfig,
}

impl SystemConfig {
    /// A scaled-down machine for fast unit tests: 4 cores, small L1.
    pub fn small_test() -> Self {
        SystemConfig {
            core: CoreConfig {
                cores: 4,
                cycles_per_op: 1,
            },
            mem: MemoryConfig {
                l1_sets: 16,
                l1_ways: 4,
                l1_hit_latency: 1,
                dir_latency: 10,
                mem_latency: 30,
            },
            noc: NocConfig::default(),
        }
    }

    /// Every leaf field as `key=value`, comma-separated, in declaration
    /// order. Part of the runner's job ids and the machine's checkpoint
    /// guard. The destructuring names every field, so adding, removing or
    /// renaming one does not compile until this encoding is edited.
    #[must_use]
    pub fn canonical(&self) -> String {
        let SystemConfig {
            core: CoreConfig {
                cores,
                cycles_per_op,
            },
            mem:
                MemoryConfig {
                    l1_sets,
                    l1_ways,
                    l1_hit_latency,
                    dir_latency,
                    mem_latency,
                },
            noc:
                NocConfig {
                    link_latency,
                    control_flits,
                    data_flits,
                },
        } = *self;
        format!(
            "cores={cores},cycles_per_op={cycles_per_op},l1_sets={l1_sets},l1_ways={l1_ways},\
             l1_hit_latency={l1_hit_latency},dir_latency={dir_latency},mem_latency={mem_latency},\
             link_latency={link_latency},control_flits={control_flits},data_flits={data_flits}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let s = SystemConfig::default();
        assert_eq!(s.core.cores, 16);
        assert_eq!(s.mem.l1_sets * s.mem.l1_ways * 64, 48 * 1024);
        assert_eq!(s.mem.dir_latency, 30);
        assert_eq!(s.noc.control_flits, 1);
        assert_eq!(s.noc.data_flits, 5);
        assert_eq!(s.noc.link_latency, 1);
    }

    #[test]
    fn small_test_is_smaller() {
        let s = SystemConfig::small_test();
        assert!(s.core.cores < SystemConfig::default().core.cores);
        assert!(s.mem.l1_sets < SystemConfig::default().mem.l1_sets);
    }

    #[test]
    fn canonical_spells_out_every_field() {
        assert_eq!(
            SystemConfig::small_test().canonical(),
            "cores=4,cycles_per_op=1,l1_sets=16,l1_ways=4,l1_hit_latency=1,dir_latency=10,\
             mem_latency=30,link_latency=1,control_flits=1,data_flits=5"
        );
    }
}
