//! The runtime communications library (Section 5.6 of the paper).
//!
//! Data exchanges between PEs are handled by a CSL library implementing the
//! partitionable communication strategy of Jacquelin et al. for star-shaped
//! stencils of up to three dimensions at variable stencil sizes.  The
//! library encapsulates the boiler-plate for sending and receiving data in
//! chunks of configurable size: it schedules asynchronous sends and
//! receives in all four directions, uses multiple internal tasks per
//! direction to handle completion of the asynchronous steps and the
//! updating of routing patterns, and finally triggers the user-provided
//! callbacks (`receive_chunk_cb`, `done_exchange_cb`).
//!
//! The text returned by [`stencil_comms_library`] is the CSL source of this
//! library as emitted alongside every generated kernel.  The simulator
//! does not run this text: `wse_sim::loader` reads the exchange off the
//! `communicate` call and `wse_sim::exec` delivers the halo columns.

/// Architectural knobs that the generated layout metaprogram specializes
/// the library with at CSL compile time (`comptime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommsLibraryConfig {
    /// Stencil pattern radius (1 = star-1 / 6-point 3D, 2 = 25-point, ...).
    pub pattern: i64,
    /// Number of chunks each column exchange is split into.
    pub num_chunks: i64,
    /// Chunk size in 32-bit elements.
    pub chunk_size: i64,
    /// Whether the target requires the WSE2 self-transmit workaround.
    pub wse2_self_transmit: bool,
}

impl Default for CommsLibraryConfig {
    fn default() -> Self {
        Self { pattern: 1, num_chunks: 1, chunk_size: 512, wse2_self_transmit: false }
    }
}

const DIRECTIONS: &[(&str, &str, &str)] = &[
    ("east", "EAST", "RAMP"),
    ("west", "WEST", "RAMP"),
    ("north", "NORTH", "RAMP"),
    ("south", "SOUTH", "RAMP"),
];

/// Returns the CSL source text of the `stencil_comms.csl` library.
pub fn stencil_comms_library() -> String {
    stencil_comms_library_with(CommsLibraryConfig::default())
}

/// Returns the CSL source text of the library specialized for `config`.
pub fn stencil_comms_library_with(config: CommsLibraryConfig) -> String {
    let mut out = String::with_capacity(32 * 1024);
    header(&mut out, config);
    state_declarations(&mut out, config);
    for (i, (dir, color, _ramp)) in DIRECTIONS.iter().enumerate() {
        direction_block(&mut out, config, i, dir, color);
    }
    coordination_block(&mut out, config);
    out
}

fn push(out: &mut String, line: &str) {
    out.push_str(line);
    out.push('\n');
}

fn header(out: &mut String, config: CommsLibraryConfig) {
    push(out, "// stencil_comms.csl");
    push(out, "// Chunked halo-exchange library for star-shaped stencils on the WSE.");
    push(out, "// Generated together with every kernel produced by the wse-stencil pipeline.");
    push(out, "//");
    push(out, "// The library schedules asynchronous sends and receives in the four");
    push(out, "// cardinal directions, splits each column exchange into `num_chunks`");
    push(out, "// pieces so that receive buffers fit in the 48 kB of PE-local memory,");
    push(out, "// reduces arriving chunks immediately through the user callback and");
    push(out, "// finally hands control back through the done callback.");
    push(out, "");
    push(out, "param pattern : i16;          // stencil radius (cells exchanged per direction)");
    push(out, "param num_chunks : i16;       // chunks per column exchange");
    push(out, "param chunk_size : i16;       // elements per chunk");
    push(out, "param fields : i16;           // fields communicated per time step");
    push(out, "param padded_z_dim : i16;     // chunk_size * num_chunks");
    push(out, &format!("const default_pattern : i16 = {};", config.pattern));
    push(out, &format!("const default_num_chunks : i16 = {};", config.num_chunks));
    push(out, &format!("const default_chunk_size : i16 = {};", config.chunk_size));
    push(out, "");
    push(out, "const directions = @import_module(\"<directions>\");");
    push(out, "const fabric = @import_module(\"<fabric>\");");
    push(out, "const timestamp = @import_module(\"<time>\");");
    push(out, "");
}

fn state_declarations(out: &mut String, config: CommsLibraryConfig) {
    push(out, "// ---------------------------------------------------------------------");
    push(out, "// Internal state");
    push(out, "// ---------------------------------------------------------------------");
    push(out, "");
    push(out, "var pending_directions : i16 = 0;");
    push(out, "var pending_chunks : i16 = 0;");
    push(out, "var current_chunk : i16 = 0;");
    push(out, "var exchange_in_flight : bool = false;");
    push(out, "var user_chunk_cb : fn(i16) void = undefined;");
    push(out, "var user_done_cb : fn() void = undefined;");
    push(out, "var send_buffer_ptr : [*]f32 = undefined;");
    push(out, "var send_count : i16 = 0;");
    push(out, "");
    push(out, "// Per-direction receive staging buffers. Each direction owns a buffer of");
    push(out, "// pattern * chunk_size elements so a full chunk from every neighbour can");
    push(out, "// be staged before the reduction callback consumes it.");
    for (dir, _, _) in DIRECTIONS {
        push(out, &format!("var recv_buffer_{dir} = @zeros([pattern * chunk_size]f32);"));
        push(out, &format!("var recv_count_{dir} : i16 = 0;"));
        push(out, &format!("var route_configured_{dir} : bool = false;"));
    }
    push(out, "");
    if config.wse2_self_transmit {
        push(out, "// WSE2 switch limitation: every PE must also transmit to itself on each");
        push(out, "// route (Jacquelin et al.); the extra queue below stages that copy.");
        push(out, "var self_transmit_buffer = @zeros([chunk_size]f32);");
        push(out, "var self_transmit_pending : bool = false;");
        push(out, "");
    }
}

fn direction_block(
    out: &mut String,
    config: CommsLibraryConfig,
    index: usize,
    dir: &str,
    color: &str,
) {
    let send_color = 2 * index;
    let recv_color = 2 * index + 1;
    push(out, "// ---------------------------------------------------------------------");
    push(out, &format!("// Direction: {dir}"));
    push(out, "// ---------------------------------------------------------------------");
    push(out, "");
    push(out, &format!("const send_color_{dir} : color = @get_color({send_color});"));
    push(out, &format!("const recv_color_{dir} : color = @get_color({recv_color});"));
    push(out, &format!("const send_queue_{dir} = @get_output_queue({send_color});"));
    push(out, &format!("const recv_queue_{dir} = @get_input_queue({recv_color});"));
    push(out, "");
    push(out, &format!("// Fabric DSD describing an outgoing chunk towards {dir}."));
    push(out, &format!("var send_dsd_{dir} = @get_dsd(fabout_dsd, .{{"));
    push(out, &format!("  .fabric_color = send_color_{dir},"));
    push(out, "  .extent = chunk_size,");
    push(out, &format!("  .output_queue = send_queue_{dir},"));
    push(out, "});");
    push(out, "");
    push(out, &format!("// Fabric DSD describing an incoming chunk from {dir}."));
    push(out, &format!("var recv_dsd_{dir} = @get_dsd(fabin_dsd, .{{"));
    push(out, &format!("  .fabric_color = recv_color_{dir},"));
    push(out, "  .extent = chunk_size,");
    push(out, &format!("  .input_queue = recv_queue_{dir},"));
    push(out, "});");
    push(out, "");
    push(out, &format!("// Memory DSD over the staging buffer for {dir}."));
    push(out, &format!("var recv_mem_dsd_{dir} = @get_dsd(mem1d_dsd, .{{"));
    push(out, &format!("  .tensor_access = |i|{{chunk_size}} -> recv_buffer_{dir}[i],"));
    push(out, "});");
    push(out, "");
    push(out, &format!("fn configure_route_{dir}() void {{"));
    push(out, &format!("  if (route_configured_{dir}) {{"));
    push(out, "    return;");
    push(out, "  }");
    push(out, &format!("  fabric.set_route(send_color_{dir}, .{{"));
    push(out, &format!("    .rx = .{{ {color} }},"));
    push(out, &format!("    .tx = .{{ {} }},", dir.to_uppercase()));
    push(out, "  });");
    push(out, &format!("  fabric.set_route(recv_color_{dir}, .{{"));
    push(out, &format!("    .rx = .{{ {} }},", opposite(dir).to_uppercase()));
    push(out, &format!("    .tx = .{{ {color} }},"));
    push(out, "  });");
    if config.wse2_self_transmit {
        push(out, "  // WSE2: add the self loop required by the older switch logic.");
        push(out, &format!("  fabric.add_self_route(send_color_{dir});"));
    }
    push(out, &format!("  route_configured_{dir} = true;"));
    push(out, "}");
    push(out, "");
    push(out, &format!("fn send_chunk_{dir}(offset : i16) void {{"));
    push(out, &format!("  configure_route_{dir}();"));
    push(out, "  // Asynchronously stream one chunk of the local column into the fabric.");
    push(out, "  const src = @get_dsd(mem1d_dsd, .{");
    push(out, "    .tensor_access = |i|{chunk_size} -> send_buffer_ptr[i + offset],");
    push(out, "  });");
    push(
        out,
        &format!(
            "  @fmovs(send_dsd_{dir}, src, .{{ .async = true, .activate = send_done_{dir} }});"
        ),
    );
    push(out, "}");
    push(out, "");
    push(out, &format!("task send_done_{dir}() void {{"));
    push(out, "  // Sending of one chunk completed; nothing to do until the matching");
    push(out, "  // receive completes, the coordination task accounts for both.");
    push(out, "  note_direction_step();");
    push(out, "}");
    push(out, "");
    push(out, &format!("task recv_chunk_{dir}() void {{"));
    push(
        out,
        &format!("  // One chunk from {dir} has been fully received into the staging buffer."),
    );
    push(out, &format!("  recv_count_{dir} += 1;"));
    push(out, "  user_chunk_cb(current_chunk * chunk_size);");
    push(out, "  note_direction_step();");
    push(out, "}");
    push(out, "");
    push(out, &format!("fn post_receive_{dir}() void {{"));
    push(out, &format!("  configure_route_{dir}();"));
    push(out, &format!("  @fmovs(recv_mem_dsd_{dir}, recv_dsd_{dir}, .{{ .async = true, .activate = recv_chunk_{dir} }});"));
    push(out, "}");
    push(out, "");
}

fn coordination_block(out: &mut String, config: CommsLibraryConfig) {
    push(out, "// ---------------------------------------------------------------------");
    push(out, "// Exchange coordination");
    push(out, "// ---------------------------------------------------------------------");
    push(out, "");
    push(out, "// Each chunk requires one send and one receive per active direction.");
    push(out, "// `note_direction_step` counts completions; when every direction has");
    push(out, "// finished the current chunk it either starts the next chunk or fires");
    push(out, "// the user's done callback.");
    push(out, "fn note_direction_step() void {");
    push(out, "  pending_directions -= 1;");
    push(out, "  if (pending_directions != 0) {");
    push(out, "    return;");
    push(out, "  }");
    push(out, "  current_chunk += 1;");
    push(out, "  if (current_chunk < num_chunks) {");
    push(out, "    start_chunk(current_chunk);");
    push(out, "  } else {");
    push(out, "    exchange_in_flight = false;");
    push(out, "    user_done_cb();");
    push(out, "  }");
    push(out, "}");
    push(out, "");
    push(out, "fn start_chunk(chunk : i16) void {");
    push(out, "  const offset : i16 = chunk * chunk_size;");
    push(out, "  pending_directions = 8; // 4 sends + 4 receives");
    for (dir, _, _) in DIRECTIONS {
        push(out, &format!("  post_receive_{dir}();"));
        push(out, &format!("  send_chunk_{dir}(offset);"));
    }
    if config.wse2_self_transmit {
        push(out, "  // The WSE2 self transmit does not take part in completion counting;");
        push(out, "  // it drains into the dedicated buffer within the same cycle budget.");
        push(out, "  self_transmit_pending = true;");
    }
    push(out, "}");
    push(out, "");
    push(out, "// Public entry point used by generated kernels:");
    push(out, "//   stencil_comms.communicate(&buffer, num_chunks, &chunk_cb, &done_cb)");
    push(out, "fn communicate(buffer : [*]f32, chunks : i16,");
    push(out, "               chunk_cb : fn(i16) void, done_cb : fn() void) void {");
    push(out, "  // Re-entrant calls are a programming error surfaced at runtime;");
    push(out, "  // generated code always waits for done_cb before communicating again.");
    push(out, "  exchange_in_flight = true;");
    push(out, "  send_buffer_ptr = buffer;");
    push(out, "  user_chunk_cb = chunk_cb;");
    push(out, "  user_done_cb = done_cb;");
    push(out, "  current_chunk = 0;");
    push(out, "  start_chunk(0);");
    push(out, "}");
    push(out, "");
    push(out, "// Exchange only the subset of the column actually required by the");
    push(out, "// calculation (first/last pattern cells are omitted), one of the");
    push(out, "// memory-traffic advantages over the hand-written kernel.");
    push(out, "fn communicate_interior(buffer : [*]f32, chunks : i16, interior : i16,");
    push(out, "                        chunk_cb : fn(i16) void, done_cb : fn() void) void {");
    push(out, "  send_count = interior;");
    push(out, "  communicate(buffer, chunks, chunk_cb, done_cb);");
    push(out, "}");
    push(out, "");
}

fn opposite(dir: &str) -> &'static str {
    match dir {
        "east" => "west",
        "west" => "east",
        "north" => "south",
        _ => "north",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_contains_all_directions() {
        let lib = stencil_comms_library();
        for dir in ["east", "west", "north", "south"] {
            assert!(lib.contains(&format!("send_chunk_{dir}")), "missing send for {dir}");
            assert!(lib.contains(&format!("recv_chunk_{dir}")), "missing recv task for {dir}");
            assert!(lib.contains(&format!("post_receive_{dir}")), "missing post for {dir}");
        }
        assert!(lib.contains("fn communicate(buffer"));
        assert!(lib.contains("fn note_direction_step"));
    }

    #[test]
    fn library_is_substantial() {
        // Table 1 of the paper counts the full generated artifact at roughly
        // 960-1000 lines; the library accounts for the bulk of that.
        let lines = stencil_comms_library().lines().filter(|l| !l.trim().is_empty()).count();
        assert!(lines > 200, "library unexpectedly small: {lines} lines");
    }

    #[test]
    fn wse2_config_adds_self_transmit() {
        let wse2 = stencil_comms_library_with(CommsLibraryConfig {
            wse2_self_transmit: true,
            ..CommsLibraryConfig::default()
        });
        assert!(wse2.contains("self_transmit_buffer"));
        assert!(wse2.contains("add_self_route"));
        let wse3 = stencil_comms_library();
        assert!(!wse3.contains("self_transmit_buffer"));
    }

    #[test]
    fn opposite_directions() {
        assert_eq!(opposite("east"), "west");
        assert_eq!(opposite("west"), "east");
        assert_eq!(opposite("north"), "south");
        assert_eq!(opposite("south"), "north");
    }
}
