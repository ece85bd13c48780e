//! Reference implementations over the structured [`LinOp`] form.
//!
//! These are the pre-decode execution engines, retained verbatim as the
//! behavioural oracle for the decoded engines in [`crate::timing`] and
//! [`crate::interp`]: the differential test suite asserts bit-identical
//! functional results, cycle counts, fuel consumption, and stall-lane
//! attribution between the two stacks. They are a test oracle only;
//! searches always run the decoded engines.
//!
//! [`LinOp`]: gpu_ir::linear::LinOp

/// The reference warp-level timing simulator, re-matching [`LinOp`]
/// enums per scheduler step.
///
/// [`LinOp`]: gpu_ir::linear::LinOp
pub mod timing {
    use gpu_arch::{LaunchError, MachineSpec, ResourceUsage};
    use gpu_ir::linear::{LinOp, LinearProgram};
    use gpu_ir::{Launch, Op, LOOP_OVERHEAD_INSTRS};

    use crate::timing::{
        warp_transaction_bytes, FamilyError, Pick, RunHalt, SimSetup, TimingError, TimingReport,
    };

    #[derive(Debug, Clone, Copy)]
    struct Frame {
        body_start: usize,
        remaining: u32,
    }

    #[derive(Debug, Clone)]
    struct Warp {
        pc: usize,
        frames: Vec<Frame>,
        reg_ready: Vec<u64>,
        /// Whether each register's pending value comes from a long-latency
        /// (off-chip) load — drives the mem/arith split of operand stalls.
        reg_from_mem: Vec<bool>,
        stall_until: u64,
        blocked: bool,
        done: bool,
        block: usize,
    }

    impl Warp {
        fn new(num_vregs: u32, block: usize) -> Self {
            Self {
                pc: 0,
                frames: Vec::new(),
                reg_ready: vec![0; num_vregs as usize],
                reg_from_mem: vec![false; num_vregs as usize],
                stall_until: 0,
                blocked: false,
                done: false,
                block,
            }
        }

        /// Skip through zero-cost control ops (loop headers, zero-trip
        /// skips) and mark completion.
        fn fast_forward(&mut self, code: &[LinOp]) {
            loop {
                if self.pc >= code.len() {
                    self.done = true;
                    return;
                }
                match &code[self.pc] {
                    LinOp::LoopStart { trips, end, .. } => {
                        if *trips == 0 {
                            self.pc = end + 1;
                        } else {
                            self.frames.push(Frame { body_start: self.pc + 1, remaining: *trips });
                            self.pc += 1;
                        }
                    }
                    _ => return,
                }
            }
        }

        /// Earliest cycle at which the operands of the op at `pc` are
        /// ready.
        fn operands_ready(&self, code: &[LinOp]) -> u64 {
            match &code[self.pc] {
                LinOp::Instr(i) => i.uses().map(|r| self.reg_ready[r.index()]).max().unwrap_or(0),
                _ => 0,
            }
        }
    }

    /// Complete mid-flight state of the event loop. Cloneable so a run
    /// can be forked at a checkpoint and finished against a sibling
    /// program (see [`simulate_family_fueled`]).
    #[derive(Debug, Clone)]
    struct SimState {
        warps: Vec<Warp>,
        barrier_arrived: Vec<usize>,
        issue_free: u64,
        sfu_free: u64,
        mem_free: f64,
        busy: u64,
        issued: u64,
        dram_bytes: u64,
        finish_time: u64,
        last_pick: usize,
        remaining: usize,
        /// Scheduler steps taken so far — the fuel meter.
        steps: u64,
        stall_mem: u64,
        stall_sfu: u64,
        stall_arith: u64,
        stall_other: u64,
    }

    impl SimState {
        fn new(prog: &LinearProgram, setup: &SimSetup) -> Self {
            let mut warps: Vec<Warp> = (0..setup.bsm)
                .flat_map(|b| (0..setup.wpb).map(move |_| b))
                .map(|b| Warp::new(prog.num_vregs, b))
                .collect();
            for w in &mut warps {
                w.fast_forward(&prog.code);
            }
            let remaining = warps.iter().filter(|w| !w.done).count();
            Self {
                warps,
                barrier_arrived: vec![0; setup.bsm],
                issue_free: 0,
                sfu_free: 0,
                mem_free: 0.0,
                busy: 0,
                issued: 0,
                dram_bytes: 0,
                finish_time: 0,
                last_pick: 0,
                remaining,
                steps: 0,
                stall_mem: 0,
                stall_sfu: 0,
                stall_arith: 0,
                stall_other: 0,
            }
        }

        /// Pick the schedulable warp with the earliest possible issue
        /// time, round-robin from the last pick for fairness.
        fn pick(&self, code: &[LinOp]) -> Pick {
            if self.remaining == 0 {
                return Pick::Done;
            }
            let n = self.warps.len();
            let mut best: Option<(u64, usize)> = None;
            for k in 0..n {
                let idx = (self.last_pick + 1 + k) % n;
                let w = &self.warps[idx];
                if w.done || w.blocked {
                    continue;
                }
                let mut t = w.stall_until.max(w.operands_ready(code));
                if matches!(&code[w.pc], LinOp::Instr(i) if i.op.is_sfu()) {
                    t = t.max(self.sfu_free);
                }
                let t = t.max(self.issue_free);
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, idx));
                }
            }
            match best {
                Some((t, idx)) => Pick::Ready(t, idx),
                None => Pick::Deadlock,
            }
        }

        /// Attribute an issue-port idle gap to the binding constraint.
        fn attribute_stall(&mut self, code: &[LinOp], t: u64, idx: usize) {
            let gap = t.saturating_sub(self.issue_free);
            if gap == 0 {
                return;
            }
            let w = &self.warps[idx];
            let operands = w.operands_ready(code);
            let sfu = if matches!(&code[w.pc], LinOp::Instr(i) if i.op.is_sfu()) {
                self.sfu_free
            } else {
                0
            };
            if operands >= sfu && operands >= w.stall_until {
                let from_mem = match &code[w.pc] {
                    LinOp::Instr(i) => i
                        .uses()
                        .any(|r| w.reg_ready[r.index()] == operands && w.reg_from_mem[r.index()]),
                    _ => false,
                };
                if from_mem {
                    self.stall_mem += gap;
                } else {
                    self.stall_arith += gap;
                }
            } else if sfu >= w.stall_until {
                self.stall_sfu += gap;
            } else {
                self.stall_other += gap;
            }
        }

        /// Issue the op of warp `idx` at time `t` and advance the state.
        fn step(
            &mut self,
            code: &[LinOp],
            setup: &SimSetup,
            spec: &MachineSpec,
            t: u64,
            idx: usize,
        ) {
            self.attribute_stall(code, t, idx);
            self.steps += 1;
            self.last_pick = idx;
            let issue = setup.issue;
            let op = code[self.warps[idx].pc].clone();
            match &op {
                LinOp::Instr(i) => {
                    self.issue_free = t + issue;
                    self.busy += issue;
                    self.issued += 1;
                    let done_at = match i.op {
                        Op::Ld(space) if space.is_long_latency() => {
                            let bytes = warp_transaction_bytes(spec, i.coalesced);
                            self.dram_bytes += bytes;
                            let service = bytes as f64 / setup.bw_per_cycle;
                            let start = self.mem_free.max(t as f64);
                            self.mem_free = start + service;
                            self.mem_free as u64 + u64::from(spec.global_latency_typ())
                        }
                        Op::St(space) if space.is_long_latency() => {
                            let bytes = warp_transaction_bytes(spec, i.coalesced);
                            self.dram_bytes += bytes;
                            let service = bytes as f64 / setup.bw_per_cycle;
                            let start = self.mem_free.max(t as f64);
                            self.mem_free = start + service;
                            t + issue
                        }
                        Op::Ld(_) | Op::St(_) => {
                            if i.replay_ways > 1 {
                                let extra = u64::from(i.replay_ways - 1) * issue;
                                self.issue_free += extra;
                                self.busy += extra;
                            }
                            t + u64::from(spec.shared_latency)
                        }
                        op if op.is_sfu() => {
                            self.sfu_free = t + u64::from(spec.sfu_issue_cycles);
                            t + u64::from(spec.sfu_latency)
                        }
                        _ => t + u64::from(spec.arith_latency),
                    };
                    if let Some(d) = i.dst {
                        self.warps[idx].reg_ready[d.index()] = done_at;
                        self.warps[idx].reg_from_mem[d.index()] =
                            matches!(i.op, Op::Ld(space) if space.is_long_latency());
                    }
                    self.warps[idx].stall_until = t + issue;
                    self.warps[idx].pc += 1;
                }
                LinOp::Sync => {
                    self.issue_free = t + issue;
                    self.busy += issue;
                    self.issued += 1;
                    let block = self.warps[idx].block;
                    self.warps[idx].pc += 1;
                    self.barrier_arrived[block] += 1;
                    if self.barrier_arrived[block] == setup.wpb {
                        self.barrier_arrived[block] = 0;
                        let release = t + issue;
                        for w in self.warps.iter_mut().filter(|w| w.block == block) {
                            if w.blocked {
                                w.blocked = false;
                            }
                            w.stall_until = w.stall_until.max(release);
                        }
                    } else {
                        self.warps[idx].blocked = true;
                    }
                }
                LinOp::LoopEnd { start } => {
                    let slots = u64::from(LOOP_OVERHEAD_INSTRS) * issue;
                    self.issue_free = t + slots;
                    self.busy += slots;
                    self.issued += u64::from(LOOP_OVERHEAD_INSTRS);
                    let frame = self.warps[idx].frames.last_mut().expect("back edge without frame");
                    frame.remaining -= 1;
                    if frame.remaining > 0 {
                        let target = frame.body_start;
                        self.warps[idx].pc = target;
                    } else {
                        self.warps[idx].frames.pop();
                        self.warps[idx].pc += 1;
                    }
                    let _ = start;
                    self.warps[idx].stall_until = t + slots;
                }
                LinOp::LoopStart { .. } => {
                    unreachable!("fast_forward consumes loop headers")
                }
            }

            self.warps[idx].fast_forward(code);
            if self.warps[idx].done {
                self.remaining -= 1;
                self.finish_time = self.finish_time.max(self.warps[idx].stall_until);
            }
        }

        /// Run the event loop until every warp retires, the fuel meter
        /// runs dry, or the block deadlocks at a barrier.
        fn run(
            &mut self,
            code: &[LinOp],
            setup: &SimSetup,
            spec: &MachineSpec,
            fuel: Option<u64>,
        ) -> Result<(), RunHalt> {
            loop {
                match self.pick(code) {
                    Pick::Done => return Ok(()),
                    Pick::Deadlock => return Err(RunHalt::Deadlock),
                    Pick::Ready(t, idx) => {
                        if fuel.is_some_and(|f| self.steps >= f) {
                            return Err(RunHalt::Fuel);
                        }
                        self.step(code, setup, spec, t, idx);
                    }
                }
            }
        }

        /// Summarise a completed run.
        fn report(&self, launch: &Launch, setup: &SimSetup, spec: &MachineSpec) -> TimingReport {
            let cycles_per_wave = self.finish_time.max(self.issue_free).max(self.mem_free as u64);
            let blocks = launch.total_blocks();
            let per_wave_capacity = u64::from(spec.num_sms) * setup.bsm as u64;
            let waves = (blocks as f64 / per_wave_capacity as f64).max(1.0);
            let total_cycles = (cycles_per_wave as f64 * waves).round() as u64;
            let time_ms = total_cycles as f64 / spec.clock_hz * 1e3;
            let bandwidth_utilization = if cycles_per_wave == 0 {
                0.0
            } else {
                (self.dram_bytes as f64 / cycles_per_wave as f64) / setup.bw_per_cycle
            };
            TimingReport {
                cycles_per_wave,
                waves,
                total_cycles,
                time_ms,
                instructions_issued: self.issued,
                busy_cycles: self.busy,
                dram_bytes: self.dram_bytes,
                bandwidth_utilization,
                occupancy: setup.occ,
                steps: self.steps,
                stall_mem_cycles: self.stall_mem,
                stall_sfu_cycles: self.stall_sfu,
                stall_arith_cycles: self.stall_arith,
                stall_other_cycles: self.stall_other,
            }
        }
    }

    /// Reference counterpart of [`crate::timing::simulate`].
    ///
    /// # Errors
    ///
    /// As [`crate::timing::simulate`].
    ///
    /// # Panics
    ///
    /// On barrier deadlock, as [`crate::timing::simulate`].
    pub fn simulate(
        prog: &LinearProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, LaunchError> {
        match simulate_fueled(prog, launch, usage, spec, None) {
            Ok(r) => Ok(r),
            Err(TimingError::Launch(e)) => Err(e),
            Err(TimingError::FuelExhausted { .. }) => unreachable!("no fuel limit was set"),
            Err(TimingError::BarrierDeadlock) => {
                panic!("barrier deadlock in a warp-uniform program")
            }
        }
    }

    /// Reference counterpart of [`crate::timing::simulate_fueled`].
    ///
    /// # Errors
    ///
    /// As [`crate::timing::simulate_fueled`].
    pub fn simulate_fueled(
        prog: &LinearProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
        fuel: Option<u64>,
    ) -> Result<TimingReport, TimingError> {
        let setup = SimSetup::new(launch, usage, spec)?;
        let mut state = SimState::new(prog, &setup);
        state.run(&prog.code, &setup, spec, fuel).map_err(|h| match h {
            RunHalt::Fuel => TimingError::FuelExhausted { fuel: fuel.unwrap_or(u64::MAX) },
            RunHalt::Deadlock => TimingError::BarrierDeadlock,
        })?;
        Ok(state.report(launch, &setup, spec))
    }

    /// Locate the single top-level loop whose trip count varies across
    /// `progs`, verifying the programs are otherwise identical.
    fn family_varying_loop(progs: &[&LinearProgram]) -> Result<Option<usize>, FamilyError> {
        let first = progs[0];
        let mut varying: Option<usize> = None;
        for p in &progs[1..] {
            if p.code.len() != first.code.len()
                || p.num_vregs != first.num_vregs
                || p.smem_words != first.smem_words
                || p.num_params != first.num_params
            {
                return Err(FamilyError::NotAFamily);
            }
            for (pc, (a, b)) in first.code.iter().zip(&p.code).enumerate() {
                if a == b {
                    continue;
                }
                match (a, b) {
                    (
                        LinOp::LoopStart { counter: ca, end: ea, .. },
                        LinOp::LoopStart { counter: cb, end: eb, .. },
                    ) if ca == cb && ea == eb && varying.is_none_or(|v| v == pc) => {
                        varying = Some(pc);
                    }
                    _ => return Err(FamilyError::NotAFamily),
                }
            }
        }
        let Some(pc) = varying else { return Ok(None) };
        let mut depth = 0usize;
        for op in &first.code[..pc] {
            match op {
                LinOp::LoopStart { .. } => depth += 1,
                LinOp::LoopEnd { .. } => depth -= 1,
                _ => {}
            }
        }
        let any_zero =
            progs.iter().any(|p| matches!(p.code[pc], LinOp::LoopStart { trips: 0, .. }));
        if depth != 0 || any_zero {
            return Err(FamilyError::NotAFamily);
        }
        Ok(Some(pc))
    }

    /// Reference counterpart of [`crate::timing::simulate_family_fueled`].
    ///
    /// Note the reference algorithm only supports a **single** varying
    /// top-level loop; the decoded engine generalizes to several.
    ///
    /// # Errors
    ///
    /// As [`crate::timing::simulate_family_fueled`], except that
    /// multi-axis families are rejected with [`FamilyError::NotAFamily`].
    pub fn simulate_family_fueled(
        progs: &[&LinearProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
        fuel: Option<u64>,
    ) -> Result<Vec<TimingReport>, FamilyError> {
        let halt_to_family = |h: RunHalt| match h {
            RunHalt::Fuel => FamilyError::FuelExhausted { fuel: fuel.unwrap_or(u64::MAX) },
            RunHalt::Deadlock => FamilyError::BarrierDeadlock,
        };
        if progs.is_empty() {
            return Ok(Vec::new());
        }
        let setup = SimSetup::new(launch, usage, spec).map_err(FamilyError::Launch)?;
        let Some(loop_pc) = family_varying_loop(progs)? else {
            let mut st = SimState::new(progs[0], &setup);
            st.run(&progs[0].code, &setup, spec, fuel).map_err(halt_to_family)?;
            let rep = st.report(launch, &setup, spec);
            return Ok(vec![rep; progs.len()]);
        };
        let trips_of = |p: &LinearProgram| match p.code[loop_pc] {
            LinOp::LoopStart { trips, .. } => trips,
            _ => unreachable!("family_varying_loop returns a LoopStart index"),
        };
        let loop_end = match progs[0].code[loop_pc] {
            LinOp::LoopStart { end, .. } => end,
            _ => unreachable!("family_varying_loop returns a LoopStart index"),
        };
        let body_start = loop_pc + 1;

        let mut by_trips: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
        for (m, p) in progs.iter().enumerate() {
            by_trips.entry(trips_of(p)).or_default().push(m);
        }
        let t_max = *by_trips.keys().next_back().expect("non-empty family");
        let master = progs[by_trips[&t_max][0]];

        let mut reports: Vec<Option<TimingReport>> = vec![None; progs.len()];
        let mut st = SimState::new(master, &setup);
        let mut max_completed = 0u32;
        loop {
            let (t, idx) = match st.pick(&master.code) {
                Pick::Done => break,
                Pick::Deadlock => return Err(FamilyError::BarrierDeadlock),
                Pick::Ready(t, idx) => (t, idx),
            };
            if fuel.is_some_and(|f| st.steps >= f) {
                return Err(FamilyError::FuelExhausted { fuel: fuel.unwrap_or(u64::MAX) });
            }
            if st.warps[idx].pc == loop_end {
                let rem = st.warps[idx].frames.last().expect("back edge without frame").remaining;
                let completed = t_max - rem + 1;
                if completed > max_completed {
                    max_completed = completed;
                    if completed < t_max {
                        if let Some(members) = by_trips.get(&completed) {
                            let delta = t_max - completed;
                            let mut clone = st.clone();
                            for w in &mut clone.warps {
                                for f in &mut w.frames {
                                    if f.body_start == body_start {
                                        f.remaining -= delta;
                                    }
                                }
                            }
                            let member = progs[members[0]];
                            clone.run(&member.code, &setup, spec, fuel).map_err(halt_to_family)?;
                            let rep = clone.report(launch, &setup, spec);
                            for &m in members {
                                reports[m] = Some(rep.clone());
                            }
                        }
                    }
                }
            }
            st.step(&master.code, &setup, spec, t, idx);
        }
        let rep = st.report(launch, &setup, spec);
        for &m in &by_trips[&t_max] {
            reports[m] = Some(rep.clone());
        }
        Ok(reports.into_iter().map(|r| r.expect("every trip count checkpointed")).collect())
    }
}

/// The reference functional interpreter, re-matching [`LinOp`] enums per
/// interpreted step.
///
/// [`LinOp`]: gpu_ir::linear::LinOp
pub mod interp {
    use gpu_arch::MemorySpace;
    use gpu_ir::linear::{LinOp, LinearProgram};
    use gpu_ir::types::{Operand, VReg};
    use gpu_ir::{Instr, Launch, Op};

    use crate::error::SimError;
    use crate::interp::{DeviceMemory, Geometry, RaceTracker, Stop, Value, DEFAULT_STEP_BUDGET};

    #[derive(Debug, Clone)]
    struct LoopFrame {
        body_start: usize,
        remaining: u32,
        counter: Option<VReg>,
        iter: i32,
    }

    struct Thread {
        regs: Vec<Value>,
        pc: usize,
        frames: Vec<LoopFrame>,
        local: Vec<Value>,
        geom: Geometry,
    }

    impl Thread {
        fn new(num_vregs: u32, geom: Geometry) -> Self {
            Self {
                regs: vec![Value::I32(0); num_vregs as usize],
                pc: 0,
                frames: Vec::new(),
                local: Vec::new(),
                geom,
            }
        }

        fn operand(&self, o: &Operand, params: &[i32]) -> Result<Value, SimError> {
            match o {
                Operand::Reg(r) => Ok(self.regs[r.index()]),
                Operand::ImmF32(v) => Ok(Value::F32(*v)),
                Operand::ImmI32(v) => Ok(Value::I32(*v)),
                Operand::Special(s) => Ok(Value::I32(self.geom.special(*s))),
                Operand::Param(i) => params
                    .get(*i as usize)
                    .map(|v| Value::I32(*v))
                    .ok_or(SimError::MissingParam { index: *i }),
            }
        }

        /// Execute until the next barrier or the end of the program.
        #[allow(clippy::too_many_arguments)]
        fn run_segment(
            &mut self,
            prog: &LinearProgram,
            params: &[i32],
            mem: &mut DeviceMemory,
            shared: &mut [f32],
            budget: &mut u64,
            mut race: Option<&mut RaceTracker>,
            lane: u32,
        ) -> Result<Stop, SimError> {
            let code = &prog.code;
            loop {
                if self.pc >= code.len() {
                    return Ok(Stop::Done);
                }
                if *budget == 0 {
                    return Err(SimError::StepBudgetExhausted);
                }
                *budget -= 1;
                match &code[self.pc] {
                    LinOp::Sync => {
                        let here = self.pc;
                        self.pc += 1;
                        return Ok(Stop::AtBarrier(here));
                    }
                    LinOp::LoopStart { counter, trips, end } => {
                        if *trips == 0 {
                            self.pc = end + 1;
                        } else {
                            if let Some(c) = counter {
                                self.regs[c.index()] = Value::I32(0);
                            }
                            self.frames.push(LoopFrame {
                                body_start: self.pc + 1,
                                remaining: *trips,
                                counter: *counter,
                                iter: 0,
                            });
                            self.pc += 1;
                        }
                    }
                    LinOp::LoopEnd { .. } => {
                        let frame = self.frames.last_mut().expect("loop frame underflow");
                        frame.remaining -= 1;
                        if frame.remaining > 0 {
                            frame.iter += 1;
                            if let Some(c) = frame.counter {
                                self.regs[c.index()] = Value::I32(frame.iter);
                            }
                            self.pc = frame.body_start;
                        } else {
                            self.frames.pop();
                            self.pc += 1;
                        }
                    }
                    LinOp::Instr(i) => {
                        self.exec(i, params, mem, shared, race.as_deref_mut(), lane)?;
                        self.pc += 1;
                    }
                }
            }
        }

        fn addr_of(&self, i: &Instr, params: &[i32]) -> Result<i64, SimError> {
            let base = self.operand(&i.srcs[0], params)?.as_i32(i.op)?;
            Ok(i64::from(base) + i64::from(i.offset))
        }

        fn load(
            &mut self,
            space: MemorySpace,
            addr: i64,
            mem: &DeviceMemory,
            shared: &[f32],
            race: Option<&mut RaceTracker>,
            lane: u32,
        ) -> Result<Value, SimError> {
            let fetch = |buf: &[f32], name: &'static str| -> Result<Value, SimError> {
                usize::try_from(addr)
                    .ok()
                    .and_then(|a| buf.get(a).copied())
                    .map(Value::F32)
                    .ok_or(SimError::OutOfBounds { space: name, addr, len: buf.len() })
            };
            match space {
                MemorySpace::Global | MemorySpace::Texture => fetch(&mem.global, "global"),
                MemorySpace::Constant => fetch(&mem.constant, "const"),
                MemorySpace::Shared => {
                    let v = fetch(shared, "shared")?;
                    if let Some(t) = race {
                        t.on_read(addr as usize, lane)?;
                    }
                    Ok(v)
                }
                MemorySpace::Local => {
                    let a = usize::try_from(addr).map_err(|_| SimError::OutOfBounds {
                        space: "local",
                        addr,
                        len: self.local.len(),
                    })?;
                    Ok(self.local.get(a).copied().unwrap_or(Value::F32(0.0)))
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn store(
            &mut self,
            space: MemorySpace,
            addr: i64,
            value: Value,
            mem: &mut DeviceMemory,
            shared: &mut [f32],
            op: &Instr,
            race: Option<&mut RaceTracker>,
            lane: u32,
        ) -> Result<(), SimError> {
            match space {
                MemorySpace::Global => {
                    let len = mem.global.len();
                    let slot = usize::try_from(addr)
                        .ok()
                        .and_then(|a| mem.global.get_mut(a))
                        .ok_or(SimError::OutOfBounds { space: "global", addr, len })?;
                    *slot = value.as_f32(op.op)?;
                }
                MemorySpace::Shared => {
                    let len = shared.len();
                    let slot = usize::try_from(addr)
                        .ok()
                        .and_then(|a| shared.get_mut(a))
                        .ok_or(SimError::OutOfBounds { space: "shared", addr, len })?;
                    let v = value.as_f32(op.op)?;
                    *slot = v;
                    if let Some(t) = race {
                        t.on_write(addr as usize, lane, v.to_bits())?;
                    }
                }
                MemorySpace::Local => {
                    let a = usize::try_from(addr).map_err(|_| SimError::OutOfBounds {
                        space: "local",
                        addr,
                        len: self.local.len(),
                    })?;
                    if a >= self.local.len() {
                        self.local.resize(a + 1, Value::F32(0.0));
                    }
                    self.local[a] = value;
                }
                MemorySpace::Constant | MemorySpace::Texture => {
                    return Err(SimError::TypeMismatch { op: format!("st.{space}") });
                }
            }
            Ok(())
        }

        fn exec(
            &mut self,
            i: &Instr,
            params: &[i32],
            mem: &mut DeviceMemory,
            shared: &mut [f32],
            race: Option<&mut RaceTracker>,
            lane: u32,
        ) -> Result<(), SimError> {
            use Op::*;
            let v = |t: &Self, n: usize| t.operand(&i.srcs[n], params);
            let o = i.op;

            let result: Value = match i.op {
                FAdd => Value::F32(v(self, 0)?.as_f32(o)? + v(self, 1)?.as_f32(o)?),
                FSub => Value::F32(v(self, 0)?.as_f32(o)? - v(self, 1)?.as_f32(o)?),
                FMul => Value::F32(v(self, 0)?.as_f32(o)? * v(self, 1)?.as_f32(o)?),
                FMad => Value::F32(
                    v(self, 0)?.as_f32(o)?.mul_add(v(self, 1)?.as_f32(o)?, v(self, 2)?.as_f32(o)?),
                ),
                FMin => Value::F32(v(self, 0)?.as_f32(o)?.min(v(self, 1)?.as_f32(o)?)),
                FMax => Value::F32(v(self, 0)?.as_f32(o)?.max(v(self, 1)?.as_f32(o)?)),
                FNeg => Value::F32(-v(self, 0)?.as_f32(o)?),
                FAbs => Value::F32(v(self, 0)?.as_f32(o)?.abs()),
                Rcp => Value::F32(1.0 / v(self, 0)?.as_f32(o)?),
                Rsqrt => Value::F32(1.0 / v(self, 0)?.as_f32(o)?.sqrt()),
                Sqrt => Value::F32(v(self, 0)?.as_f32(o)?.sqrt()),
                Sin => Value::F32(v(self, 0)?.as_f32(o)?.sin()),
                Cos => Value::F32(v(self, 0)?.as_f32(o)?.cos()),
                Ex2 => Value::F32(v(self, 0)?.as_f32(o)?.exp2()),
                IAdd => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_add(v(self, 1)?.as_i32(o)?)),
                ISub => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_sub(v(self, 1)?.as_i32(o)?)),
                IMul => Value::I32(v(self, 0)?.as_i32(o)?.wrapping_mul(v(self, 1)?.as_i32(o)?)),
                IMad => Value::I32(
                    v(self, 0)?
                        .as_i32(o)?
                        .wrapping_mul(v(self, 1)?.as_i32(o)?)
                        .wrapping_add(v(self, 2)?.as_i32(o)?),
                ),
                IDiv => {
                    let (a, b) = (v(self, 0)?.as_i32(o)?, v(self, 1)?.as_i32(o)?);
                    Value::I32(if b == 0 { 0 } else { a.wrapping_div(b) })
                }
                IRem => {
                    let (a, b) = (v(self, 0)?.as_i32(o)?, v(self, 1)?.as_i32(o)?);
                    Value::I32(if b == 0 { 0 } else { a.wrapping_rem(b) })
                }
                Shl => {
                    Value::I32(v(self, 0)?.as_i32(o)?.wrapping_shl(v(self, 1)?.as_i32(o)? as u32))
                }
                Shr => {
                    Value::I32(v(self, 0)?.as_i32(o)?.wrapping_shr(v(self, 1)?.as_i32(o)? as u32))
                }
                And => Value::I32(v(self, 0)?.as_i32(o)? & v(self, 1)?.as_i32(o)?),
                Or => Value::I32(v(self, 0)?.as_i32(o)? | v(self, 1)?.as_i32(o)?),
                Xor => Value::I32(v(self, 0)?.as_i32(o)? ^ v(self, 1)?.as_i32(o)?),
                IMin => Value::I32(v(self, 0)?.as_i32(o)?.min(v(self, 1)?.as_i32(o)?)),
                IMax => Value::I32(v(self, 0)?.as_i32(o)?.max(v(self, 1)?.as_i32(o)?)),
                Mov => v(self, 0)?,
                F2I => Value::I32(v(self, 0)?.as_f32(o)? as i32),
                I2F => Value::F32(v(self, 0)?.as_i32(o)? as f32),
                SetLt | SetLe | SetEq | SetNe => {
                    let (a, b) = (v(self, 0)?, v(self, 1)?);
                    let ord = match (a, b) {
                        (Value::F32(x), Value::F32(y)) => x.partial_cmp(&y),
                        (Value::I32(x), Value::I32(y)) => Some(x.cmp(&y)),
                        _ => return Err(SimError::TypeMismatch { op: i.op.mnemonic() }),
                    };
                    let t = match (i.op, ord) {
                        (SetLt, Some(ord)) => ord.is_lt(),
                        (SetLe, Some(ord)) => ord.is_le(),
                        (SetEq, Some(ord)) => ord.is_eq(),
                        (SetNe, Some(ord)) => ord.is_ne(),
                        (SetNe, None) => true, // NaN != anything
                        (_, None) => false,
                        _ => unreachable!("outer match restricts the op"),
                    };
                    Value::I32(i32::from(t))
                }
                Selp => {
                    let c = v(self, 2)?.as_i32(o)?;
                    if c != 0 {
                        v(self, 0)?
                    } else {
                        v(self, 1)?
                    }
                }
                Ld(space) => {
                    let addr = self.addr_of(i, params)?;
                    self.load(space, addr, mem, shared, race, lane)?
                }
                St(space) => {
                    let addr = self.addr_of(i, params)?;
                    let value = self.operand(&i.srcs[1], params)?;
                    self.store(space, addr, value, mem, shared, i, race, lane)?;
                    return Ok(());
                }
            };
            let dst = i.dst.expect("non-store ops have destinations");
            self.regs[dst.index()] = result;
            Ok(())
        }
    }

    /// Reference counterpart of [`crate::interp::run_kernel`].
    ///
    /// # Errors
    ///
    /// As [`crate::interp::run_kernel`].
    pub fn run_kernel(
        prog: &LinearProgram,
        launch: &Launch,
        params: &[i32],
        mem: &mut DeviceMemory,
    ) -> Result<(), SimError> {
        run_kernel_with_budget(prog, launch, params, mem, DEFAULT_STEP_BUDGET)
    }

    /// Reference counterpart of [`crate::interp::run_kernel_with_budget`].
    ///
    /// # Errors
    ///
    /// As [`crate::interp::run_kernel_with_budget`].
    pub fn run_kernel_with_budget(
        prog: &LinearProgram,
        launch: &Launch,
        params: &[i32],
        mem: &mut DeviceMemory,
        budget: u64,
    ) -> Result<(), SimError> {
        run_grid(prog, launch, params, mem, budget, false)
    }

    /// Reference counterpart of [`crate::interp::run_kernel_checked`].
    ///
    /// # Errors
    ///
    /// As [`crate::interp::run_kernel_checked`].
    pub fn run_kernel_checked(
        prog: &LinearProgram,
        launch: &Launch,
        params: &[i32],
        mem: &mut DeviceMemory,
    ) -> Result<(), SimError> {
        run_grid(prog, launch, params, mem, DEFAULT_STEP_BUDGET, true)
    }

    fn run_grid(
        prog: &LinearProgram,
        launch: &Launch,
        params: &[i32],
        mem: &mut DeviceMemory,
        budget: u64,
        check_races: bool,
    ) -> Result<(), SimError> {
        if launch.grid.count() == 0 || launch.block.count() == 0 {
            return Err(SimError::EmptyLaunch);
        }
        let (gx, gy) = (launch.grid.x, launch.grid.y);
        let (bx, by) = (launch.block.x, launch.block.y);

        for cy in 0..gy {
            for cx in 0..gx {
                let mut shared = vec![0.0f32; prog.smem_words as usize];
                let mut tracker = check_races.then(|| RaceTracker::new(prog.smem_words as usize));
                let mut threads: Vec<Thread> = (0..by)
                    .flat_map(|ty| (0..bx).map(move |tx| (tx, ty)))
                    .map(|(tx, ty)| {
                        Thread::new(
                            prog.num_vregs,
                            Geometry {
                                tid: (tx, ty),
                                ctaid: (cx, cy),
                                ntid: (bx, by),
                                nctaid: (gx, gy),
                            },
                        )
                    })
                    .collect();

                let mut block_budget = budget;
                loop {
                    let mut stops = Vec::with_capacity(threads.len());
                    for (lane, t) in threads.iter_mut().enumerate() {
                        stops.push(t.run_segment(
                            prog,
                            params,
                            mem,
                            &mut shared,
                            &mut block_budget,
                            tracker.as_mut(),
                            lane as u32,
                        )?);
                    }
                    let first = stops[0];
                    if stops.iter().any(|s| *s != first) {
                        return Err(SimError::BarrierDivergence);
                    }
                    if first == Stop::Done {
                        break;
                    }
                    if let Some(t) = tracker.as_mut() {
                        t.advance();
                    }
                }
            }
        }
        Ok(())
    }
}
