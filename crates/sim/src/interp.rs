//! The pre-refactor string-keyed interpreter, kept as a baseline.
//!
//! This is the original execution engine that [`crate::exec::WseGridSim`]
//! replaced: every PE owns a `HashMap` of named buffers, every kernel
//! clones the full field state of every PE for the halo snapshot, and
//! every view read allocates a fresh `Vec<f32>`.  It is retained verbatim
//! so parity tests and the conformance harness can check the two engines
//! produce bitwise-identical results.  Do not use it for new work.
//!
//! # Shared instruction semantics
//!
//! This module is the executable specification of the [`Instr`] stream
//! that every engine — and every rewrite in the link-time optimizer
//! ([`crate::link`]) — must preserve *bitwise*:
//!
//! * elementwise instructions have read-all-then-write semantics (this
//!   engine materializes every read into a fresh `Vec` before writing;
//!   the linked engine uses a scratch buffer, and fused one-pass sweeps
//!   are only formed when the linker proves no source aliases the
//!   destination, making the one-pass result identical);
//! * `Macs` computes `acc[i] + src[i] * coeff` as an f32 multiply
//!   followed by an f32 add — never a fused multiply-add — and fused
//!   sweeps apply their terms left to right with exactly this per-element
//!   operation sequence;
//! * cross-PE reads observe the pre-kernel state of the transmitted
//!   columns (here: a deep snapshot of all field buffers; the linked
//!   engine captures only the communicated columns, or skips the capture
//!   entirely when it can defer the write-back instead), and
//!   out-of-grid neighbors read as zero.

use std::collections::HashMap;

use crate::exec::ExecError;
use crate::loader::{BinKind, CommSpec, Instr, LoadedProgram, Src, ViewRef};
use crate::reference::{initial_value, Field3D, GridState};

/// The state of one PE: its named local buffers.
#[derive(Debug, Clone)]
struct PeState {
    /// Buffers by name.
    buffers: HashMap<String, Vec<f32>>,
}

fn err(message: impl Into<String>) -> ExecError {
    ExecError::invalid(message)
}

/// The legacy tree-walking simulation of a PE grid (see module docs).
#[derive(Debug, Clone)]
pub struct InterpGridSim {
    program: LoadedProgram,
    pes: Vec<PeState>,
}

impl InterpGridSim {
    /// Creates the grid, allocating and initializing every PE's buffers,
    /// and fills the field buffers with the shared initial condition.
    pub fn new(program: LoadedProgram) -> Self {
        let (width, height) = (program.width, program.height);
        let mut pes = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                let mut buffers = HashMap::new();
                for decl in &program.buffers {
                    buffers.insert(decl.name.clone(), vec![decl.init; decl.len as usize]);
                }
                for (fi, field) in program.field_buffers.iter().enumerate() {
                    if let Some(buf) = buffers.get_mut(field) {
                        for z in 0..program.z_dim {
                            buf[(program.z_halo + z) as usize] = initial_value(fi, x, y, z);
                        }
                    }
                }
                pes.push(PeState { buffers });
            }
        }
        Self { program, pes }
    }

    fn pe_index(&self, x: i64, y: i64) -> Option<usize> {
        if x < 0 || y < 0 || x >= self.program.width || y >= self.program.height {
            return None;
        }
        Some((y * self.program.width + x) as usize)
    }

    /// Runs the program for `timesteps` steps (defaults to the program's
    /// own timestep count).
    ///
    /// # Errors
    /// Returns an [`ExecError`] on unknown buffers or out-of-bounds views.
    pub fn run(&mut self, timesteps: Option<i64>) -> Result<(), ExecError> {
        let steps = timesteps.unwrap_or(self.program.timesteps);
        for _ in 0..steps {
            for k in 0..self.program.kernels.len() {
                self.run_kernel(k)?;
            }
        }
        Ok(())
    }

    fn run_kernel(&mut self, kernel_index: usize) -> Result<(), ExecError> {
        let kernel = self.program.kernels[kernel_index].clone();
        // Snapshot the field buffers: cross-PE reads must observe the
        // pre-kernel state.
        let snapshot: Vec<HashMap<String, Vec<f32>>> = self
            .pes
            .iter()
            .map(|pe| {
                self.program
                    .field_buffers
                    .iter()
                    .filter_map(|f| pe.buffers.get(f).map(|b| (f.clone(), b.clone())))
                    .collect()
            })
            .collect();

        let width = self.program.width;
        let height = self.program.height;
        let z_halo = self.program.z_halo;
        for y in 0..height {
            for x in 0..width {
                let index = self.pe_index(x, y).expect("in range");
                for instr in &kernel.pre {
                    Self::execute(&mut self.pes[index], instr, 0)?;
                }
                if let Some(comm) = &kernel.comm {
                    for chunk in 0..comm.num_chunks {
                        self.stage_chunk(comm, x, y, chunk, z_halo, &snapshot)?;
                        let chunk_offset = chunk * comm.chunk_size;
                        let pe = &mut self.pes[index];
                        for instr in &kernel.recv {
                            Self::execute(pe, instr, chunk_offset)?;
                        }
                    }
                    let pe = &mut self.pes[index];
                    for instr in &kernel.done {
                        Self::execute(pe, instr, 0)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn stage_chunk(
        &mut self,
        comm: &CommSpec,
        x: i64,
        y: i64,
        chunk: i64,
        z_halo: i64,
        snapshot: &[HashMap<String, Vec<f32>>],
    ) -> Result<(), ExecError> {
        let index = self.pe_index(x, y).expect("in range");
        let chunk_size = comm.chunk_size as usize;
        for (slot, spec) in comm.slots.iter().enumerate() {
            let mut data = vec![0.0f32; chunk_size];
            if let Some(neighbor) = self.pe_index(x + spec.dx, y + spec.dy) {
                let column = snapshot[neighbor]
                    .get(&spec.field)
                    .ok_or_else(|| err(format!("unknown field buffer {}", spec.field)))?;
                let start = (z_halo + chunk * comm.chunk_size) as usize;
                for (i, dst) in data.iter_mut().enumerate() {
                    *dst = column.get(start + i).copied().unwrap_or(0.0);
                }
            }
            let recv = self.pes[index]
                .buffers
                .get_mut("recv_buffer")
                .ok_or_else(|| err("missing recv_buffer"))?;
            let base = slot * chunk_size;
            if base + chunk_size > recv.len() {
                return Err(err("receive buffer overflow"));
            }
            recv[base..base + chunk_size].copy_from_slice(&data);
        }
        Ok(())
    }

    fn read_view(pe: &PeState, view: &ViewRef, chunk_offset: i64) -> Result<Vec<f32>, ExecError> {
        let buf = pe
            .buffers
            .get(&view.buffer)
            .ok_or_else(|| err(format!("unknown buffer {}", view.buffer)))?;
        let offset = view.offset + if view.dynamic { chunk_offset } else { 0 };
        let start = offset as usize;
        let end = start + view.len as usize;
        if end > buf.len() {
            return Err(err(format!(
                "view [{start}, {end}) out of bounds for buffer {} (len {})",
                view.buffer,
                buf.len()
            )));
        }
        Ok(buf[start..end].to_vec())
    }

    fn write_view(
        pe: &mut PeState,
        view: &ViewRef,
        chunk_offset: i64,
        data: &[f32],
    ) -> Result<(), ExecError> {
        let buf = pe
            .buffers
            .get_mut(&view.buffer)
            .ok_or_else(|| err(format!("unknown buffer {}", view.buffer)))?;
        let offset = view.offset + if view.dynamic { chunk_offset } else { 0 };
        let start = offset as usize;
        let end = start + view.len as usize;
        if end > buf.len() {
            return Err(err(format!(
                "view [{start}, {end}) out of bounds for buffer {} (len {})",
                view.buffer,
                buf.len()
            )));
        }
        buf[start..end].copy_from_slice(data);
        Ok(())
    }

    fn execute(pe: &mut PeState, instr: &Instr, chunk_offset: i64) -> Result<(), ExecError> {
        match instr {
            Instr::Movs { dest, src } => {
                let data = match src {
                    Src::View(view) => Self::read_view(pe, view, chunk_offset)?,
                    Src::Scalar(value) => vec![*value; dest.len as usize],
                };
                Self::write_view(pe, dest, chunk_offset, &data)
            }
            Instr::Binary { kind, dest, a, b } => {
                let va = Self::read_view(pe, a, chunk_offset)?;
                let vb = Self::read_view(pe, b, chunk_offset)?;
                let out: Vec<f32> = va
                    .iter()
                    .zip(&vb)
                    .map(|(x, y)| match kind {
                        BinKind::Add => x + y,
                        BinKind::Sub => x - y,
                        BinKind::Mul => x * y,
                    })
                    .collect();
                Self::write_view(pe, dest, chunk_offset, &out)
            }
            Instr::Macs { dest, acc, src, coeff } => {
                let va = Self::read_view(pe, acc, chunk_offset)?;
                let vs = Self::read_view(pe, src, chunk_offset)?;
                let out: Vec<f32> = va.iter().zip(&vs).map(|(a, s)| a + s * coeff).collect();
                Self::write_view(pe, dest, chunk_offset, &out)
            }
        }
    }

    /// Extracts a field as a dense 3-D array (legacy semantics: `None` on
    /// an unknown or missing buffer).
    pub fn field(&self, name: &str) -> Option<Field3D> {
        if !self.program.field_buffers.iter().any(|f| f == name) {
            return None;
        }
        let mut out = Field3D::zeros(self.program.width, self.program.height, self.program.z_dim);
        for y in 0..self.program.height {
            for x in 0..self.program.width {
                let pe = &self.pes[self.pe_index(x, y).expect("in range")];
                let buf = pe.buffers.get(name)?;
                for z in 0..self.program.z_dim {
                    out.set(x, y, z, buf[(self.program.z_halo + z) as usize]);
                }
            }
        }
        Some(out)
    }

    /// Extracts every observable field as a [`GridState`] (legacy
    /// semantics: missing fields are silently dropped).  Internal
    /// double-buffer fields are excluded, mirroring
    /// [`crate::exec::WseGridSim::grid_state`].
    pub fn grid_state(&self) -> GridState {
        let names: Vec<String> = self
            .program
            .field_buffers
            .iter()
            .filter(|n| !self.program.internal_fields.contains(n))
            .cloned()
            .collect();
        let fields = names.iter().filter_map(|n| self.field(n)).collect();
        GridState { names, fields }
    }
}
