package obs

// dashboardHTML is the self-contained live dashboard served at /. No
// external assets: styles and script are inline so the page works from an
// air-gapped bench box. It consumes /api/state once for first paint, then
// /api/stream (SSE) for live updates, falling back to polling if the stream
// drops. Layout: a KPI row of stat tiles, small-multiple sparklines (one
// per abort reason — identity by label, single hue), the worker table, and
// flight-recorder dumps.
//
// NOTE: the script intentionally avoids JS template literals — this file
// embeds the page in a Go raw string, so backticks are off the table.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>htmcmp live telemetry</title>
<style>
:root {
  color-scheme: light;
  --page:      #f9f9f7;
  --surface:   #fcfcfb;
  --ink:       #0b0b0b;
  --ink-2:     #52514e;
  --muted:     #898781;
  --grid:      #e1e0d9;
  --baseline:  #c3c2b7;
  --border:    rgba(11,11,11,0.10);
  --series-1:  #2a78d6;
  --status-good:     #0ca30c;
  --status-warning:  #fab219;
  --status-serious:  #ec835a;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page:      #0d0d0d;
    --surface:   #1a1a19;
    --ink:       #ffffff;
    --ink-2:     #c3c2b7;
    --muted:     #898781;
    --grid:      #2c2c2a;
    --baseline:  #383835;
    --border:    rgba(255,255,255,0.10);
    --series-1:  #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px 40px;
  background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 16px; font-weight: 600; margin: 0 0 2px; }
.sub { color: var(--muted); font-size: 12px; margin-bottom: 16px; }
.sub .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%;
  background: var(--status-critical); margin-right: 4px; vertical-align: baseline; }
.sub.live .dot { background: var(--status-good); }
section { margin-bottom: 20px; }
h2 { font-size: 12px; font-weight: 600; color: var(--ink-2);
  text-transform: uppercase; letter-spacing: 0.04em; margin: 0 0 8px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(180px, 1fr)); gap: 10px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px 8px; min-height: 74px; position: relative;
}
.tile .label { font-size: 12px; color: var(--ink-2); margin-bottom: 2px; }
.tile .value { font-size: 26px; font-weight: 600; line-height: 1.1; }
.tile .unit { font-size: 12px; color: var(--muted); font-weight: 400; margin-left: 2px; }
.tile svg { display: block; width: 100%; height: 34px; margin-top: 6px; }
.multiples { display: grid; grid-template-columns: repeat(auto-fill, minmax(200px, 1fr)); gap: 10px; }
.spark-val { font-size: 15px; font-weight: 600; float: right; }
table {
  width: 100%; border-collapse: collapse; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; overflow: hidden;
  font-variant-numeric: tabular-nums;
}
th, td { text-align: left; padding: 6px 12px; border-top: 1px solid var(--grid); font-size: 13px; }
th { border-top: none; color: var(--muted); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; }
.state { font-weight: 600; }
.state::before { content: "●"; margin-right: 5px; }
.state.run::before  { color: var(--status-good); }
.state.idle::before { color: var(--baseline); }
.state.stall::before { color: var(--status-serious); }
.flights li { margin: 2px 0; font-size: 13px; }
.flights .why { color: var(--status-serious); font-weight: 600; }
.empty { color: var(--muted); font-size: 13px; }
#tip {
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--surface); border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 8px; font-size: 12px; color: var(--ink);
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
}
#tip .t { color: var(--muted); }
</style>
</head>
<body>
<h1>htmcmp live telemetry</h1>
<div class="sub" id="status"><span class="dot"></span><span id="status-text">connecting…</span></div>

<section>
  <h2>Throughput</h2>
  <div class="tiles" id="kpis"></div>
</section>

<section>
  <h2>Abort rate by reason <span style="font-weight:400;text-transform:none;color:var(--muted)">(aborts/s, one panel per reason)</span></h2>
  <div class="multiples" id="reasons"></div>
</section>

<section>
  <h2>Sweep workers</h2>
  <div id="workers"></div>
</section>

<section>
  <h2>Flight recorder</h2>
  <div id="flights" class="flights"><span class="empty">no dumps</span></div>
</section>

<div id="tip"></div>

<script>
"use strict";
var tip = document.getElementById("tip");

function fmt(v) {
  if (v >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (v >= 1e3) return (v / 1e3).toFixed(1) + "k";
  if (v >= 100) return v.toFixed(0);
  if (v >= 1) return v.toFixed(1);
  return v.toFixed(2);
}
function esc(s) {
  return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;").replace(/>/g, "&gt;")
    .replace(/"/g, "&quot;");
}

// sparkSVG renders one series as a 2px line with a baseline and an end dot.
// Data points ride along in data- attributes for the hover layer.
function sparkSVG(pts, times, w, h) {
  var svg = '<svg viewBox="0 0 ' + w + ' ' + h + '" preserveAspectRatio="none" ' +
    'class="spark" data-v="' + pts.map(fmt).join(",") + '" data-t="' + times.join(",") + '">';
  svg += '<line x1="0" y1="' + (h - 1) + '" x2="' + w + '" y2="' + (h - 1) +
    '" stroke="var(--baseline)" stroke-width="1"/>';
  if (pts.length > 1) {
    var max = Math.max.apply(null, pts), min = 0;
    if (max <= min) max = 1;
    var step = w / (pts.length - 1), d = "";
    for (var i = 0; i < pts.length; i++) {
      var x = (i * step).toFixed(1);
      var y = (h - 3 - (pts[i] - min) / (max - min) * (h - 8)).toFixed(1);
      d += (i ? "L" : "M") + x + " " + y;
    }
    svg += '<path d="' + d + '" fill="none" stroke="var(--series-1)" ' +
      'stroke-width="2" stroke-linejoin="round" vector-effect="non-scaling-stroke"/>';
    var lx = w.toFixed(1), ly = (h - 3 - (pts[pts.length - 1] - min) / (max - min) * (h - 8)).toFixed(1);
    svg += '<circle cx="' + lx + '" cy="' + ly + '" r="3" fill="var(--series-1)" ' +
      'stroke="var(--surface)" stroke-width="2"/>';
  }
  return svg + "</svg>";
}

function tile(label, value, unit, series) {
  var html = '<div class="tile"><div class="label">' + esc(label) + '</div>' +
    '<div class="value">' + value + '<span class="unit">' + unit + "</span></div>";
  if (series) html += sparkSVG(series.rates, series.times_ms, 200, 34);
  return html + "</div>";
}

function findSeries(state, name) {
  for (var i = 0; i < (state.series || []).length; i++)
    if (state.series[i].name === name) return state.series[i];
  return null;
}
function lastRate(s) { return s && s.rates.length ? s.rates[s.rates.length - 1] : 0; }

var reasonRe = /^htm_tx_aborts_by_reason_total\{reason="(.+)"\}$/;

function render(state) {
  var commits = findSeries(state, "htm_tx_commits_total");
  var aborts = findSeries(state, "htm_tx_aborts_total");
  var kpis = "";
  kpis += tile("Commit rate", fmt(lastRate(commits)), "/s", commits);
  kpis += tile("Abort rate", fmt(lastRate(aborts)), "/s", aborts);
  var modeRate = 0;
  for (var i = 0; i < (state.series || []).length; i++)
    if (state.series[i].name.indexOf("tm_mode_switches_total{") === 0)
      modeRate += lastRate(state.series[i]);
  kpis += tile("Mode switches", fmt(modeRate), "/s", null);
  var busy = 0, workers = state.workers || [];
  for (var j = 0; j < workers.length; j++) if (workers[j].state === "run") busy++;
  if (workers.length)
    kpis += tile("Workers busy", busy + '<span class="unit">/' + workers.length + "</span>", "", null);
  kpis += tile("Cells done", fmt(state.counters["sweep_cells_done_total"] || 0), "", null);
  var retries = state.counters["sweep_cell_retries_total"] || 0;
  var quar = state.counters["sweep_cells_quarantined_total"] || 0;
  var recov = state.counters["sweep_cells_recovered_total"] || 0;
  if (retries || quar || recov)
    kpis += tile("Self-healing", fmt(recov) +
      '<span class="unit"> recovered / ' + fmt(retries) + " retries / " +
      fmt(quar) + " quarantined</span>", "", null);
  kpis += tile("Aborts total", fmt(state.counters["htm_tx_aborts_total"] || 0), "", null);
  document.getElementById("kpis").innerHTML = kpis;

  // Small multiples: one labeled sparkline per abort reason. Identity lives
  // in the label, so a single hue serves every panel.
  var panels = "";
  for (var k = 0; k < (state.series || []).length; k++) {
    var s = state.series[k], m = reasonRe.exec(s.name);
    if (!m || m[1] === "none") continue;
    panels += '<div class="tile"><span class="spark-val">' + fmt(lastRate(s)) +
      '<span class="unit">/s</span></span><div class="label">' + esc(m[1]) + "</div>" +
      sparkSVG(s.rates, s.times_ms, 200, 34) + "</div>";
  }
  document.getElementById("reasons").innerHTML =
    panels || '<span class="empty">no abort series yet</span>';

  var whtml;
  if (!workers.length) {
    whtml = '<span class="empty">no sweep running</span>';
  } else {
    whtml = "<table><tr><th>worker</th><th>state</th><th>cell</th>" +
      '<th class="num">for</th><th class="num">done</th></tr>';
    for (var w = 0; w < workers.length; w++) {
      var row = workers[w];
      var secs = Math.max(0, (state.now_ms - row.since_ms) / 1000);
      var cls = row.state === "run" ? (secs > 60 ? "stall" : "run") : "idle";
      whtml += '<tr><td>#' + row.id + '</td><td><span class="state ' + cls + '">' +
        esc(row.state) + "</span></td><td>" + esc(row.cell || "—") + "</td>" +
        '<td class="num">' + secs.toFixed(0) + 's</td>' +
        '<td class="num">' + row.done + "</td></tr>";
    }
    whtml += "</table>";
  }
  document.getElementById("workers").innerHTML = whtml;

  var flights = state.flights || [];
  var fhtml = "";
  for (var f = 0; f < flights.length; f++)
    fhtml += '<li><span class="why">⚑ ' + esc(flights[f].reason) + "</span> " +
      esc(flights[f].time) + " → <code>" + esc(flights[f].dir) + "</code> " +
      esc(flights[f].detail || "") + "</li>";
  document.getElementById("flights").innerHTML =
    fhtml ? "<ul>" + fhtml + "</ul>" : '<span class="empty">no dumps</span>';
}

// Hover layer: nearest-point tooltip over any sparkline.
document.addEventListener("mousemove", function (e) {
  var el = e.target.closest ? e.target.closest("svg.spark") : null;
  if (!el) { tip.style.display = "none"; return; }
  var vals = el.getAttribute("data-v").split(",");
  var ts = el.getAttribute("data-t").split(",");
  if (!vals.length || vals[0] === "") { tip.style.display = "none"; return; }
  var r = el.getBoundingClientRect();
  var i = Math.round((e.clientX - r.left) / r.width * (vals.length - 1));
  i = Math.min(Math.max(i, 0), vals.length - 1);
  var when = ts[i] ? new Date(+ts[i]).toLocaleTimeString() : "";
  tip.innerHTML = "<b>" + esc(vals[i]) + "/s</b> <span class=\"t\">" + when + "</span>";
  tip.style.display = "block";
  tip.style.left = (e.clientX + 12) + "px";
  tip.style.top = (e.clientY - 28) + "px";
});

var statusEl = document.getElementById("status"), statusText = document.getElementById("status-text");
function setLive(live, text) {
  statusEl.className = live ? "sub live" : "sub";
  statusText.textContent = text;
}

function poll() {
  fetch("/api/state").then(function (r) { return r.json(); }).then(render)
    .catch(function () {});
}
poll();
var es = new EventSource("/api/stream");
es.onmessage = function (e) { setLive(true, "live (SSE)"); render(JSON.parse(e.data)); };
es.onerror = function () { setLive(false, "stream lost — polling"); };
setInterval(function () { if (es.readyState === 2) poll(); }, 2000);
</script>
</body>
</html>
`
