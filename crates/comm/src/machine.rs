//! The `Machine`: a torus partition bound to simulator resources.
//!
//! Maps the partition's directed torus links and the bridge nodes'
//! eleventh (I/O) links to the dense [`ResourceId`] space of `bgq-netsim`,
//! builds the capacity table, and computes routes for transfers. I/O nodes
//! are modelled as extra simulator nodes appended after the compute nodes,
//! so ION-side processing shares the same injection-serialization model.

use bgq_netsim::{ResourceId, SimConfig, Simulator};
use bgq_torus::{num_links, route, IoLayout, IonId, LinkId, NodeId, Shape, Zone};

/// Why a [`Machine`] could not be constructed or configured.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The network parameters failed [`SimConfig::check`].
    InvalidConfig(String),
    /// The operation needs psets/bridges/IONs, but the partition is not a
    /// whole number of psets.
    NoIoLayout,
    /// A filesystem bandwidth was zero or negative.
    NonPositiveFsBandwidth { per_ion: f64, aggregate: f64 },
    /// A randomized routing zone was requested where the machine needs a
    /// deterministic one.
    RandomizedZone(Zone),
    /// A link-degradation factor fell outside `(0, 1]`.
    DegradeFactorOutOfRange { link: LinkId, factor: f64 },
    /// A degraded link id does not exist in this partition.
    LinkOutOfRange { link: LinkId },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::InvalidConfig(msg) => write!(f, "invalid SimConfig: {msg}"),
            MachineError::NoIoLayout => {
                write!(f, "partition has no I/O layout (not a pset multiple)")
            }
            MachineError::NonPositiveFsBandwidth { per_ion, aggregate } => write!(
                f,
                "filesystem bandwidths must be positive, got per-ION {per_ion} / \
                 aggregate {aggregate}"
            ),
            MachineError::RandomizedZone(zone) => write!(
                f,
                "Machine routing requires a deterministic zone, got {zone:?}"
            ),
            MachineError::DegradeFactorOutOfRange { link, factor } => write!(
                f,
                "degradation factor must be in (0, 1] for {link}, got {factor}"
            ),
            MachineError::LinkOutOfRange { link } => {
                write!(f, "degraded link {link} outside the partition")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Parameters of the file-server backend behind the I/O nodes (the ALCF
/// QDR InfiniBand switch complex and GPFS file servers of Figure 1).
///
/// `/dev/null` experiments (the paper's Figures 10 and 11) do not use
/// this: delivery at the ION completes a write. With a filesystem
/// attached, each ION forwards over its own IB link and all IONs share
/// the file servers' aggregate ingest bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct FsParams {
    /// Bandwidth of one ION's link into the switch complex.
    pub per_ion_bandwidth: f64,
    /// Aggregate file-server ingest bandwidth shared by all IONs.
    pub aggregate_bandwidth: f64,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            // QDR IB: 4 GB/s signalling, ~3.2 GB/s effective payload.
            per_ion_bandwidth: 3.2e9,
            // Mira's GPFS sustains ~240 GB/s machine-wide; scaled runs
            // share proportionally, so expose the full-machine figure.
            aggregate_bandwidth: 240e9,
        }
    }
}

/// A simulated BG/Q partition: topology + I/O layout + network parameters.
#[derive(Debug, Clone)]
pub struct Machine {
    shape: Shape,
    io: Option<IoLayout>,
    fs: Option<FsParams>,
    degraded: Vec<(LinkId, f64)>,
    config: SimConfig,
    zone: Zone,
}

impl Machine {
    /// Build a machine over `shape` with the given network parameters.
    ///
    /// The I/O subsystem (psets, bridge nodes, IONs) is available only for
    /// partitions that are a whole number of 128-node psets; smaller test
    /// partitions still support compute-to-compute traffic.
    ///
    /// # Panics
    /// Panics if the config is invalid; use [`Machine::try_new`] to handle
    /// that as a [`MachineError`] instead.
    pub fn new(shape: Shape, config: SimConfig) -> Machine {
        Machine::try_new(shape, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Machine::new`].
    pub fn try_new(shape: Shape, config: SimConfig) -> Result<Machine, MachineError> {
        config.check().map_err(MachineError::InvalidConfig)?;
        let io = if shape.num_nodes().is_multiple_of(bgq_torus::PSET_NODES) {
            Some(IoLayout::new(shape))
        } else {
            None
        };
        Ok(Machine {
            shape,
            io,
            fs: None,
            degraded: Vec::new(),
            config,
            zone: Zone::Z2,
        })
    }

    /// Attach a file-server backend behind the I/O nodes.
    ///
    /// # Panics
    /// Panics if the partition has no I/O layout, or if the parameters are
    /// non-positive; use [`Machine::try_with_filesystem`] to handle that as
    /// a [`MachineError`] instead.
    pub fn with_filesystem(self, fs: FsParams) -> Machine {
        self.try_with_filesystem(fs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Machine::with_filesystem`].
    pub fn try_with_filesystem(mut self, fs: FsParams) -> Result<Machine, MachineError> {
        if self.io.is_none() {
            return Err(MachineError::NoIoLayout);
        }
        if !(fs.per_ion_bandwidth > 0.0 && fs.aggregate_bandwidth > 0.0) {
            return Err(MachineError::NonPositiveFsBandwidth {
                per_ion: fs.per_ion_bandwidth,
                aggregate: fs.aggregate_bandwidth,
            });
        }
        self.fs = Some(fs);
        Ok(self)
    }

    /// The attached filesystem parameters, if any.
    pub fn fs(&self) -> Option<&FsParams> {
        self.fs.as_ref()
    }

    /// Override the deterministic routing zone (must be zone 2 or 3).
    ///
    /// # Panics
    /// Panics if `zone` is one of the randomized zones; use
    /// [`Machine::try_with_zone`] to handle that as a [`MachineError`]
    /// instead.
    pub fn with_zone(self, zone: Zone) -> Machine {
        self.try_with_zone(zone).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Machine::with_zone`].
    pub fn try_with_zone(mut self, zone: Zone) -> Result<Machine, MachineError> {
        if !zone.is_deterministic() {
            return Err(MachineError::RandomizedZone(zone));
        }
        self.zone = zone;
        Ok(self)
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    pub fn zone(&self) -> Zone {
        self.zone
    }

    /// The I/O layout, if the partition has one.
    pub fn io(&self) -> Option<&IoLayout> {
        self.io.as_ref()
    }

    /// The I/O layout.
    ///
    /// # Panics
    /// Panics if the partition is too small to have psets; use
    /// [`Machine::try_io_layout`] to handle that as a [`MachineError`]
    /// instead.
    pub fn io_layout(&self) -> &IoLayout {
        self.try_io_layout().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Machine::io_layout`].
    pub fn try_io_layout(&self) -> Result<&IoLayout, MachineError> {
        self.io.as_ref().ok_or(MachineError::NoIoLayout)
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> u32 {
        self.shape.num_nodes()
    }

    /// Number of simulator nodes: compute nodes, IONs, and (with a
    /// filesystem attached) one file-server sink.
    pub fn num_sim_nodes(&self) -> u32 {
        self.num_nodes()
            + self.io.as_ref().map_or(0, |io| io.num_ions())
            + u32::from(self.fs.is_some())
    }

    /// Simulator node index of the file-server sink.
    ///
    /// # Panics
    /// Panics if no filesystem is attached.
    pub fn fs_sim_node(&self) -> u32 {
        assert!(self.fs.is_some(), "no filesystem attached");
        self.num_nodes() + self.io_layout().num_ions()
    }

    /// Simulator node index of an I/O node.
    pub fn ion_sim_node(&self, ion: IonId) -> u32 {
        debug_assert!(ion.0 < self.io_layout().num_ions());
        self.num_nodes() + ion.0
    }

    /// Resource id of a directed torus link.
    #[inline]
    pub fn torus_resource(&self, link: LinkId) -> ResourceId {
        ResourceId(link.0)
    }

    /// The torus link a resource id maps back to, or `None` for resources
    /// outside the torus link space (I/O links, filesystem).
    #[inline]
    pub fn torus_link(&self, resource: ResourceId) -> Option<LinkId> {
        (resource.0 < num_links(&self.shape)).then_some(LinkId(resource.0))
    }

    /// Resource id of a bridge node's outbound I/O link (bridge → ION).
    ///
    /// # Panics
    /// Panics if `bridge` is not a bridge node.
    pub fn io_resource(&self, bridge: NodeId) -> ResourceId {
        let io = self.io_layout();
        let idx = io
            .io_link_index(bridge)
            .unwrap_or_else(|| panic!("{bridge} is not a bridge node"));
        ResourceId(num_links(&self.shape) + idx)
    }

    /// Resource id of a bridge node's inbound I/O link (ION → bridge).
    /// The eleventh link is full duplex; reads use this direction.
    ///
    /// # Panics
    /// Panics if `bridge` is not a bridge node.
    pub fn io_in_resource(&self, bridge: NodeId) -> ResourceId {
        let io = self.io_layout();
        let idx = io
            .io_link_index(bridge)
            .unwrap_or_else(|| panic!("{bridge} is not a bridge node"));
        ResourceId(num_links(&self.shape) + io.num_io_links() + idx)
    }

    /// Total number of resources: torus links + I/O links (both
    /// directions), plus (with a filesystem) one IB link per ION and the
    /// shared file-server ingest.
    pub fn num_resources(&self) -> u32 {
        let base = num_links(&self.shape) + 2 * self.io.as_ref().map_or(0, |io| io.num_io_links());
        match (&self.fs, &self.io) {
            (Some(_), Some(io)) => base + io.num_ions() + 1,
            _ => base,
        }
    }

    /// Resource id of an ION's InfiniBand link into the switch complex.
    ///
    /// # Panics
    /// Panics if no filesystem is attached.
    pub fn fs_ion_resource(&self, ion: IonId) -> ResourceId {
        assert!(self.fs.is_some(), "no filesystem attached");
        let io = self.io_layout();
        debug_assert!(ion.0 < io.num_ions());
        ResourceId(num_links(&self.shape) + 2 * io.num_io_links() + ion.0)
    }

    /// Resource id of the shared file-server ingest capacity.
    ///
    /// # Panics
    /// Panics if no filesystem is attached.
    pub fn fs_aggregate_resource(&self) -> ResourceId {
        assert!(self.fs.is_some(), "no filesystem attached");
        let io = self.io_layout();
        ResourceId(num_links(&self.shape) + 2 * io.num_io_links() + io.num_ions())
    }

    /// Mark torus links as degraded: each listed link's capacity is
    /// multiplied by its factor (in `(0, 1]`). Models partially failed or
    /// contended-by-another-job links; deterministic routing does not
    /// avoid them, which is exactly why the paper's link-disjoint
    /// multipath limits the blast radius of one bad link.
    ///
    /// # Panics
    /// Panics if a factor is outside `(0, 1]` or a link does not exist; use
    /// [`Machine::try_with_degraded_links`] to handle that as a
    /// [`MachineError`] instead.
    pub fn with_degraded_links(self, degraded: &[(LinkId, f64)]) -> Machine {
        self.try_with_degraded_links(degraded)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Machine::with_degraded_links`].
    pub fn try_with_degraded_links(
        mut self,
        degraded: &[(LinkId, f64)],
    ) -> Result<Machine, MachineError> {
        for &(link, factor) in degraded {
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(MachineError::DegradeFactorOutOfRange { link, factor });
            }
            if link.0 >= num_links(&self.shape) {
                return Err(MachineError::LinkOutOfRange { link });
            }
            self.degraded.push((link, factor));
        }
        Ok(self)
    }

    /// The degraded links, if any.
    pub fn degraded_links(&self) -> &[(LinkId, f64)] {
        &self.degraded
    }

    /// Build the capacity table for the simulator.
    pub fn capacities(&self) -> Vec<f64> {
        let nl = num_links(&self.shape) as usize;
        let nio = 2 * self.io.as_ref().map_or(0, |io| io.num_io_links()) as usize;
        let mut caps = vec![self.config.link_bandwidth; nl];
        caps.resize(nl + nio, self.config.io_link_bandwidth);
        if let (Some(fs), Some(io)) = (&self.fs, &self.io) {
            caps.resize(nl + nio + io.num_ions() as usize, fs.per_ion_bandwidth);
            caps.push(fs.aggregate_bandwidth);
        }
        for &(link, factor) in &self.degraded {
            caps[link.0 as usize] *= factor;
        }
        caps
    }

    /// Construct the simulator for this machine.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(self.num_sim_nodes(), self.capacities(), self.config.clone())
    }

    /// The deterministic torus route between two compute nodes, as
    /// simulator resources.
    pub fn route_resources(&self, src: NodeId, dst: NodeId) -> Vec<ResourceId> {
        route(&self.shape, src, dst, self.zone)
            .links
            .into_iter()
            .map(|l| self.torus_resource(l))
            .collect()
    }

    /// The deterministic torus route between two compute nodes.
    pub fn torus_route(&self, src: NodeId, dst: NodeId) -> bgq_torus::Route {
        route(&self.shape, src, dst, self.zone)
    }

    /// Half the torus diameter in hops (a representative hop count for
    /// latency models).
    pub fn mean_hops(&self) -> f64 {
        bgq_torus::Dim::ALL
            .into_iter()
            .map(|d| self.shape.extent(d) as f64 / 4.0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::standard_shape;

    fn machine128() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn resource_space_covers_torus_and_io_links() {
        let m = machine128();
        // 10 torus links per node + 2 io links out + 2 io links in.
        assert_eq!(m.num_resources(), 128 * 10 + 2 + 2);
        let caps = m.capacities();
        assert_eq!(caps.len(), 1284);
        assert_eq!(caps[0], 1.8e9);
        for &cap in &caps[1280..1284] {
            assert_eq!(cap, 2.0e9);
        }
    }

    #[test]
    fn small_partitions_have_no_io() {
        let m = Machine::new(Shape::new(2, 2, 2, 2, 2), SimConfig::default());
        assert!(m.io().is_none());
        assert_eq!(m.num_sim_nodes(), 32);
        assert_eq!(m.num_resources(), 320);
    }

    #[test]
    fn ion_sim_nodes_follow_compute_nodes() {
        let m = machine128();
        assert_eq!(m.num_sim_nodes(), 129);
        assert_eq!(m.ion_sim_node(bgq_torus::IonId(0)), 128);
    }

    #[test]
    fn io_resource_maps_bridges() {
        let m = machine128();
        let io = m.io_layout();
        let bridges = io.bridges_of_pset(bgq_torus::PsetId(0));
        assert_eq!(m.io_resource(bridges[0]), ResourceId(1280));
        assert_eq!(m.io_resource(bridges[1]), ResourceId(1281));
        // The inbound direction is a distinct full-duplex resource.
        assert_eq!(m.io_in_resource(bridges[0]), ResourceId(1282));
        assert_eq!(m.io_in_resource(bridges[1]), ResourceId(1283));
    }

    #[test]
    #[should_panic(expected = "not a bridge")]
    fn io_resource_rejects_non_bridge() {
        let m = machine128();
        m.io_resource(NodeId(5));
    }

    #[test]
    fn route_resources_match_torus_route() {
        let m = machine128();
        let r = m.route_resources(NodeId(0), NodeId(127));
        let tr = m.torus_route(NodeId(0), NodeId(127));
        assert_eq!(r.len(), tr.hops());
        for (res, link) in r.iter().zip(&tr.links) {
            assert_eq!(res.0, link.0);
        }
    }

    #[test]
    #[should_panic(expected = "deterministic zone")]
    fn randomized_zone_rejected() {
        let _ = machine128().with_zone(Zone::Z0);
    }

    #[test]
    fn try_constructors_report_errors_as_values() {
        let bad = SimConfig {
            link_bandwidth: 0.0,
            ..SimConfig::default()
        };
        assert!(matches!(
            Machine::try_new(standard_shape(128).unwrap(), bad),
            Err(MachineError::InvalidConfig(_))
        ));

        let small = Machine::new(Shape::new(2, 2, 2, 2, 2), SimConfig::default());
        assert!(matches!(
            small.try_io_layout(),
            Err(MachineError::NoIoLayout)
        ));
        assert!(matches!(
            small.try_with_filesystem(FsParams::default()),
            Err(MachineError::NoIoLayout)
        ));

        assert!(matches!(
            machine128().try_with_zone(Zone::Z1),
            Err(MachineError::RandomizedZone(Zone::Z1))
        ));
        assert!(matches!(
            machine128().try_with_degraded_links(&[(LinkId(3), 1.5)]),
            Err(MachineError::DegradeFactorOutOfRange { .. })
        ));
        assert!(matches!(
            machine128().try_with_degraded_links(&[(LinkId(999_999), 0.5)]),
            Err(MachineError::LinkOutOfRange { .. })
        ));

        // The happy path is unchanged.
        let m = machine128()
            .try_with_filesystem(FsParams::default())
            .unwrap()
            .try_with_zone(Zone::Z3)
            .unwrap()
            .try_with_degraded_links(&[(LinkId(0), 0.5)])
            .unwrap();
        assert_eq!(m.zone(), Zone::Z3);
        assert_eq!(m.degraded_links(), &[(LinkId(0), 0.5)]);
    }
}
