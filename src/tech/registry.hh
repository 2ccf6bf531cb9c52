/**
 * @file
 * The named-technology registry and the tech-spec parser.
 *
 * One registry instance holds the built-in technologies every client
 * shares (`TechRegistry::builtins()`): the paper's FlexIC process,
 * its slow/fast voltage corners, and a generic silicon CMOS node for
 * cross-technology comparisons. Clients select a technology with a
 * *spec string*
 *
 *     <name>[:key=value,...]
 *
 * e.g. `flexic-0.6um` or `flexic-0.6um:voltage=2.4,ffPowerRatio=8` —
 * the grammar `risspgen synth --tech`, `risspgen explore` plan `tech`
 * lines and `FlowService` requests all share. Specs are user input:
 * parse() returns every per-field problem of one spec in a single
 * Result, never aborts.
 *
 * Adding a technology is registration, not subclassing: build a
 * `Technology` value (usually by overriding a built-in or deriving a
 * voltage corner) and `add()` it; every model downstream is already
 * parameterized on the value.
 */

#ifndef RISSP_TECH_REGISTRY_HH
#define RISSP_TECH_REGISTRY_HH

#include <string>
#include <vector>

#include "tech/technology.hh"
#include "util/status.hh"

namespace rissp
{

/** An ordered collection of named technologies. */
class TechRegistry
{
  public:
    /** An empty registry; most callers want builtins(). */
    TechRegistry() = default;

    /** The shared built-in set: `flexic-0.6um` (the defaults),
     *  `flexic-0.6um-slow` (2.4 V), `flexic-0.6um-fast` (3.6 V) and
     *  `silicon-65nm` (plausibly scaled generic CMOS). */
    static const TechRegistry &builtins();

    /** Register @p tech. A duplicate or empty name is
     *  InvalidArgument. */
    Status add(Technology tech);

    /** Look up a technology by exact name; nullptr when absent. */
    const Technology *find(const std::string &name) const;

    /** Every registered technology, in registration order. */
    const std::vector<Technology> &list() const { return entries; }

    /**
     * Resolve a spec string `<name>[:key=value,...]`. The name must
     * be registered (NotFound lists the known names); overrides go
     * through applyTechOverride() and *every* bad key, bad number
     * and out-of-range value of the spec is reported in one Status.
     * A spec with overrides names the returned technology after the
     * full spec string, so result rows stay distinguishable from
     * the unmodified base technology.
     */
    Result<Technology> parse(const std::string &spec) const;

  private:
    std::vector<Technology> entries;
};

} // namespace rissp

#endif // RISSP_TECH_REGISTRY_HH
