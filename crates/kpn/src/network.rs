//! Network assembly: processes + channels + wiring.

use crate::channel::{ChannelBehavior, ChannelId, Fifo, PortId, ReadOutcome, WriteOutcome};
use crate::process::{Collector, NodeId, PjdSource, Process, Syscall, Wakeup};
use crate::token::Token;
use rtft_rtc::TimeNs;
use std::any::Any;
use std::fmt;

/// Channel storage. [`Fifo`] — the channel on every hot data path — is
/// stored inline so the engine's `try_write`/`try_read` dispatch is a
/// direct, inlineable call; every other behavior rides the usual trait
/// object. Dispatch order and semantics are identical either way.
pub enum ChanBody {
    /// An inline [`Fifo`].
    Fifo(Fifo),
    /// Any other channel behavior.
    Dyn(Box<dyn ChannelBehavior>),
}

impl ChanBody {
    fn from_behavior<C: ChannelBehavior + 'static>(c: C) -> Self {
        let mut holder = Some(c);
        let any: &mut dyn Any = &mut holder;
        if let Some(f) = any.downcast_mut::<Option<Fifo>>() {
            return ChanBody::Fifo(f.take().expect("fresh holder"));
        }
        ChanBody::Dyn(Box::new(holder.take().expect("fresh holder")))
    }
}

impl fmt::Debug for ChanBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChanBody::Fifo(c) => c.fmt(f),
            ChanBody::Dyn(c) => c.fmt(f),
        }
    }
}

impl ChannelBehavior for ChanBody {
    #[inline]
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        match self {
            ChanBody::Fifo(c) => c.try_write(iface, token, now),
            ChanBody::Dyn(c) => c.try_write(iface, token, now),
        }
    }

    #[inline]
    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        match self {
            ChanBody::Fifo(c) => c.try_read(iface, now),
            ChanBody::Dyn(c) => c.try_read(iface, now),
        }
    }

    fn write_ifaces(&self) -> usize {
        match self {
            ChanBody::Fifo(c) => c.write_ifaces(),
            ChanBody::Dyn(c) => c.write_ifaces(),
        }
    }

    fn read_ifaces(&self) -> usize {
        match self {
            ChanBody::Fifo(c) => c.read_ifaces(),
            ChanBody::Dyn(c) => c.read_ifaces(),
        }
    }

    #[inline]
    fn fill(&self, iface: usize) -> usize {
        match self {
            ChanBody::Fifo(c) => c.fill(iface),
            ChanBody::Dyn(c) => c.fill(iface),
        }
    }

    fn capacity(&self, iface: usize) -> usize {
        match self {
            ChanBody::Fifo(c) => c.capacity(iface),
            ChanBody::Dyn(c) => c.capacity(iface),
        }
    }

    fn max_fill(&self, iface: usize) -> usize {
        match self {
            ChanBody::Fifo(c) => c.max_fill(iface),
            ChanBody::Dyn(c) => c.max_fill(iface),
        }
    }

    fn debug_name(&self) -> Option<&str> {
        match self {
            ChanBody::Fifo(c) => c.debug_name(),
            ChanBody::Dyn(c) => c.debug_name(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        match self {
            ChanBody::Fifo(c) => c.as_any(),
            ChanBody::Dyn(c) => c.as_any(),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            ChanBody::Fifo(c) => c.as_any_mut(),
            ChanBody::Dyn(c) => c.as_any_mut(),
        }
    }
}

/// Process storage, mirroring [`ChanBody`]: the two helper processes on
/// the benchmark hot paths are inline, the rest are trait objects.
pub enum ProcBody {
    /// An inline [`PjdSource`].
    Source(PjdSource),
    /// An inline [`Collector`].
    Collector(Collector),
    /// Any other process.
    Dyn(Box<dyn Process>),
}

impl ProcBody {
    fn from_process<P: Process + 'static>(p: P) -> Self {
        let mut holder = Some(p);
        let any: &mut dyn Any = &mut holder;
        if let Some(s) = any.downcast_mut::<Option<PjdSource>>() {
            return ProcBody::Source(s.take().expect("fresh holder"));
        }
        if let Some(c) = any.downcast_mut::<Option<Collector>>() {
            return ProcBody::Collector(c.take().expect("fresh holder"));
        }
        ProcBody::Dyn(Box::new(holder.take().expect("fresh holder")))
    }
}

impl Process for ProcBody {
    fn name(&self) -> &str {
        match self {
            ProcBody::Source(p) => p.name(),
            ProcBody::Collector(p) => p.name(),
            ProcBody::Dyn(p) => p.name(),
        }
    }

    #[inline]
    fn resume(&mut self, wake: Wakeup, now: TimeNs) -> Syscall {
        match self {
            ProcBody::Source(p) => p.resume(wake, now),
            ProcBody::Collector(p) => p.resume(wake, now),
            ProcBody::Dyn(p) => p.resume(wake, now),
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        match self {
            ProcBody::Source(p) => p.as_any(),
            ProcBody::Collector(p) => p.as_any(),
            ProcBody::Dyn(p) => p.as_any(),
        }
    }
}

impl fmt::Debug for ProcBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Process({})", self.name())
    }
}

/// A named channel slot in the network.
pub struct ChannelSlot {
    /// Diagnostic name.
    pub name: String,
    /// The channel state machine.
    pub behavior: ChanBody,
}

impl fmt::Debug for ChannelSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelSlot")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A named process slot in the network.
pub struct ProcessSlot {
    /// Diagnostic name (copied from the process at insertion).
    pub name: String,
    /// The process itself.
    pub process: ProcBody,
}

impl fmt::Debug for ProcessSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessSlot")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A complete process network: the unit both runtimes execute.
///
/// Build one with [`Network::new`] by adding channels first (so their
/// [`PortId`]s can be passed to process constructors), then processes.
///
/// # Examples
///
/// ```
/// use rtft_kpn::{Fifo, Network, Payload, PjdSink, PjdSource, PortId};
/// use rtft_rtc::{PjdModel, TimeNs};
///
/// let mut net = Network::new();
/// let link = net.add_channel(Fifo::new("link", 4));
/// let model = PjdModel::periodic(TimeNs::from_ms(10));
/// net.add_process(PjdSource::new("src", PortId::of(link), model, 0, Some(100), Payload::U64));
/// net.add_process(PjdSink::new("sink", PortId::of(link), model, 1, Some(100)));
/// assert_eq!(net.channel_count(), 1);
/// assert_eq!(net.process_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    channels: Vec<ChannelSlot>,
    processes: Vec<ProcessSlot>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a channel, returning its id.
    pub fn add_channel(&mut self, behavior: impl ChannelBehavior + 'static) -> ChannelId {
        self.add_channel_body(ChanBody::from_behavior(behavior))
    }

    /// Adds an already-boxed channel, returning its id.
    pub fn add_channel_boxed(&mut self, behavior: Box<dyn ChannelBehavior>) -> ChannelId {
        self.add_channel_body(ChanBody::Dyn(behavior))
    }

    fn add_channel_body(&mut self, behavior: ChanBody) -> ChannelId {
        let id = ChannelId(self.channels.len());
        let name = behavior
            .debug_name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("ch{}", id.0));
        self.channels.push(ChannelSlot { name, behavior });
        id
    }

    /// Diagnostic name of a channel (the behavior's own name, or `ch<N>`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel_name(&self, id: ChannelId) -> &str {
        &self.channels[id.0].name
    }

    /// Adds a process, returning its id.
    pub fn add_process(&mut self, process: impl Process + 'static) -> NodeId {
        self.add_process_body(ProcBody::from_process(process))
    }

    fn add_process_body(&mut self, process: ProcBody) -> NodeId {
        let id = NodeId(self.processes.len());
        let name = process.name().to_owned();
        self.processes.push(ProcessSlot { name, process });
        id
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Borrows a channel's behavior.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &dyn ChannelBehavior {
        &self.channels[id.0].behavior
    }

    /// Mutably borrows a channel's behavior.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel_mut(&mut self, id: ChannelId) -> &mut dyn ChannelBehavior {
        &mut self.channels[id.0].behavior
    }

    /// Concrete-typed channel access for the engine's hot path: dispatch
    /// through [`ChanBody`]'s match instead of a vtable, so `Fifo` ops
    /// inline into the step loop.
    #[inline]
    pub(crate) fn chan_body_mut(&mut self, id: ChannelId) -> &mut ChanBody {
        &mut self.channels[id.0].behavior
    }

    /// Downcasts a channel to a concrete type (e.g. to read a replicator's
    /// fault latches after a run).
    pub fn channel_as<T: 'static>(&self, id: ChannelId) -> Option<&T> {
        self.channels
            .get(id.0)
            .and_then(|c| c.behavior.as_any().downcast_ref::<T>())
    }

    /// Borrows a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn process(&self, id: NodeId) -> &dyn Process {
        &self.processes[id.0].process
    }

    /// Downcasts a process to a concrete type (e.g. to read a sink's
    /// recorded arrivals after a run). Returns `None` if the process does
    /// not opt into inspection via [`Process::as_any`] or the type differs.
    pub fn process_as<T: 'static + Process>(&self, id: NodeId) -> Option<&T> {
        self.processes
            .get(id.0)
            .and_then(|p| p.process.as_any())
            .and_then(|a| a.downcast_ref::<T>())
    }

    /// Names of all processes, in id order (diagnostics).
    pub fn process_names(&self) -> Vec<&str> {
        self.processes.iter().map(|p| p.name.as_str()).collect()
    }

    /// Validates the wiring reachable from the processes: every referenced
    /// port must exist. Returns a human-readable description of the first
    /// problem found.
    ///
    /// Port references live inside process state, so this can only check
    /// channel-side invariants; it is called by the runtimes before
    /// execution.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.channels.iter().enumerate() {
            let b = &c.behavior;
            if b.write_ifaces() == 0 || b.read_ifaces() == 0 {
                return Err(format!(
                    "channel {i} ({}) has a side with no interfaces",
                    c.name
                ));
            }
        }
        Ok(())
    }

    /// Splits the network into its parts (used by the threaded runtime,
    /// which moves processes into threads).
    pub fn into_parts(self) -> (Vec<ChannelSlot>, Vec<ProcessSlot>) {
        (self.channels, self.processes)
    }

    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<ChannelSlot>, &mut Vec<ProcessSlot>) {
        (&mut self.channels, &mut self.processes)
    }
}

/// Convenience: a `PortId` for interface 0 of a channel.
pub fn port(channel: ChannelId) -> PortId {
    PortId::of(channel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Fifo;
    use crate::process::{Collector, Wakeup};
    use rtft_rtc::TimeNs;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut net = Network::new();
        let c0 = net.add_channel(Fifo::new("a", 1));
        let c1 = net.add_channel(Fifo::new("b", 1));
        assert_eq!((c0, c1), (ChannelId(0), ChannelId(1)));
        let p0 = net.add_process(Collector::new("c", PortId::of(c0), None));
        assert_eq!(p0, NodeId(0));
        assert_eq!(net.process_names(), vec!["c"]);
    }

    #[test]
    fn channel_downcast() {
        let mut net = Network::new();
        let c = net.add_channel(Fifo::new("fifo", 2));
        assert!(net.channel_as::<Fifo>(c).is_some());
        assert_eq!(net.channel_as::<Fifo>(c).unwrap().name(), "fifo");
    }

    #[test]
    fn validate_accepts_simple_network() {
        let mut net = Network::new();
        net.add_channel(Fifo::new("a", 1));
        assert!(net.validate().is_ok());
    }

    #[test]
    fn process_resume_via_network() {
        let mut net = Network::new();
        let c = net.add_channel(Fifo::new("a", 1));
        let p = net.add_process(Collector::new("c", PortId::of(c), None));
        let (_, procs) = net.parts_mut();
        let syscall = procs[p.0].process.resume(Wakeup::Start, TimeNs::ZERO);
        assert!(matches!(syscall, crate::Syscall::Read(_)));
    }
}
